package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// workload is one load shape. Closed-loop workloads keep inFlight elections
// running, each worker starting its next only when the previous returned;
// the open-loop one fires elections on a fixed schedule regardless.
type workload struct {
	Name string
	// Why says which layers the workload stresses and which it bypasses.
	Why       string
	transport live.Transport
	n         int // system size; every processor participates (k = n)
	inFlight  int // closed loop: concurrent elections
	// rate > 0 makes the workload open-loop: elections due every 1/rate s,
	// at most maxInFlight running; an arrival beyond the cap is refused.
	rate        float64
	maxInFlight int
	scenario    fault.Scenario
	// sized is the elections one measured second completes on the 2-core
	// reference host. It only sizes the warm-up.
	sized float64
	// driven marks the workloads BENCHMARK.json lists: the driver's budget
	// pays for three runs long enough to repeat on a shared host. The others
	// run by hand, with no -workload selected, and under -aa.
	driven bool
}

var workloads = []workload{
	{
		Name:      "solo-chan-n32",
		Why:       "in-process floor: core and live do all the work, wire/transport/electd none, so a socket-path change must not move it",
		transport: live.TransportChan, n: 32, inFlight: 1, sized: 300, driven: true,
	},
	{
		Name:      "solo-tcp-n32",
		Why:       "latency-bound: one election's quorum round-trips in sequence over loopback TCP; transport wake-up and quorum wait dominate",
		transport: live.TransportTCP, n: 32, inFlight: 1, sized: 40, driven: true,
	},
	{
		Name:      "load-tcp-n16-c4",
		Why:       "throughput-bound: 4 elections share the TCP connections, so coalescer, register store, codec CPU and GC pressure dominate",
		transport: live.TransportTCP, n: 16, inFlight: 4, sized: 160, driven: true,
	},
	{
		Name:      "load-udp-n16-c4",
		Why:       "same load over UDP datagrams with retransmit and dedup, so a TCP gain that costs the datagram path (or the reverse) shows",
		transport: live.TransportUDP, n: 16, inFlight: 4, sized: 160,
	},
	{
		Name:      "wan-tcp-n16",
		Why:       "delay-bound: 300us + U[0,700us] injected per message, so the algorithm's communicate-call count sets latency, not codec CPU",
		transport: live.TransportTCP, n: 16, inFlight: 1, scenario: fault.WAN(), sized: 25,
	},
	{
		Name:      "arrivals-tcp-n16-r60",
		Why:       "open loop at 60 elections/s, latency from the due time, so a stall is charged to every election queued behind it",
		transport: live.TransportTCP, n: 16, rate: 60, maxInFlight: 32, sized: 60,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// electionSeed derives election idx's seed from the base seed with one full
// splitmix64 step, as campaign.shardSeed does: the finalizer decorrelates
// elections from live's own per-processor golden-ratio seed stride.
func electionSeed(base int64, idx int) int64 {
	z := uint64(base) + uint64(idx)*live.SeedStride
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// warmupOffset keeps the warm-up elections' seed indices apart from the
// measured ones, so measured election i has the same inputs however long
// the warm-up ran.
const warmupOffset = 1 << 40

// checkValid judges one election from its decisions alone: exactly one of
// the k participants decided WIN, every other decided LOSE, none is missing.
func checkValid(res live.Result, k int) error {
	if len(res.Decisions) != k {
		return fmt.Errorf("%d of %d participants decided", len(res.Decisions), k)
	}
	winners := 0
	for id := rt.ProcID(0); int(id) < k; id++ {
		switch d, ok := res.Decisions[id]; {
		case !ok:
			return fmt.Errorf("participant %d has no decision", id)
		case d == core.Win:
			winners++
		case d != core.Lose:
			return fmt.Errorf("participant %d decided %v", id, d)
		}
	}
	if winners != 1 {
		return fmt.Errorf("%d winners", winners)
	}
	return nil
}

// env is one built substrate: the shared electd cluster (socket workloads)
// and the shared system pool every election of a workload runs on.
type env struct {
	w       workload
	cluster *electd.Cluster // nil on the chan substrate
	spool   *live.SystemPool
	rec     *trace.Recorder // nil unless this is the traced run
}

// setUp builds the substrate once: cluster start, pool dial and system pool.
// A recorder is attached through the packages' public options only.
func setUp(w workload, rec *trace.Recorder) (*env, error) {
	e := &env{w: w, rec: rec, spool: live.NewSystemPool(w.n, !w.transport.Networked())}
	if w.transport.Networked() {
		spec := transport.Spec{Name: string(w.transport), Trace: rec}
		cl, err := electd.NewClusterSpec(spec, w.n, electd.ClusterOptions{
			Server: electd.ServerOptions{Trace: rec},
		})
		if err != nil {
			return nil, fmt.Errorf("start %s cluster: %w", w.transport, err)
		}
		e.cluster = cl
	}
	return e, nil
}

func (e *env) close() {
	e.spool.Close()
	if e.cluster != nil {
		e.cluster.Close() //nolint:errcheck // teardown of a loopback cluster
	}
}

// sample is one attempted election.
type sample struct {
	// latency is what the caller waited: the election's service time, plus,
	// on the open loop, how late after its due time it began.
	latency, service time.Duration
	rounds, calls    int
	msgs, bytes      int64
	err              error // election error or failed validity check
	// Traced runs only: the election ID its spans carry, the trace-clock
	// time and the recorder ticket at which it began.
	id     uint64
	begin  int64
	ticket uint64
}

// elect runs and times one live.Elect on the shared substrate and checks
// the outcome's validity.
func (e *env) elect(seed int64) sample {
	cfg := live.Config{
		N: e.w.n, Seed: seed, Transport: e.w.transport,
		Scenario: e.w.scenario, Pool: e.spool, Trace: e.rec,
	}
	var s sample
	if e.cluster != nil {
		cfg.Cluster = e.cluster
		cfg.ElectionID = e.cluster.NextElectionID()
		// The instance is over once Elect returns; evicting it keeps the
		// shared servers' memory flat over a long run.
		defer e.cluster.RemoveElection(cfg.ElectionID)
		s.id = cfg.ElectionID
	} else {
		s.id = uint64(seed)*2 + 1 // the tag live stamps on chan spans
	}
	if e.rec != nil {
		s.begin, s.ticket = trace.Now(), e.rec.Recorded()
	}
	start := time.Now()
	res, err := live.Elect(cfg)
	s.service = time.Since(start)
	s.latency = s.service
	if err == nil {
		err = checkValid(res, e.w.n)
	}
	s.err = err
	s.rounds, s.calls, s.msgs, s.bytes = res.Rounds, res.Time, res.Messages, res.Bytes
	return s
}

// warmUp runs the workload's warm-up elections, one at a time.
func (e *env) warmUp(seed int64, count int) error {
	for i := 0; i < count; i++ {
		if s := e.elect(electionSeed(seed, warmupOffset+i)); s.err != nil {
			return fmt.Errorf("warm-up election %d: %w", i, s.err)
		}
	}
	return nil
}

// closedLoop keeps workers elections in flight until the deadline: a worker
// starts election i+1 only when its previous one returned. done counts
// completed elections for the overrun guard.
func closedLoop(workers int, deadline time.Time, done *atomic.Int64, elect func(i int) sample) []sample {
	var next atomic.Int64
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[w] = append(per[w], elect(int(next.Add(1)-1)))
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// openLoop fires count elections on a fixed schedule, election i due at
// start + i·interval, however the earlier ones fare.
type openLoop struct {
	interval    time.Duration
	count       int
	maxInFlight int
	// sleep waits out most of the time to the next arrival; tests
	// substitute one that oversleeps.
	sleep func(time.Duration)
}

// spinWindow is how long before an arrival's due time the generator stops
// sleeping and yields in a loop instead: the runtime's timers wake up to a
// millisecond late, which alone would breach the 1 ms lag flag.
const spinWindow = 2 * time.Millisecond

// run returns the attempted elections, how many arrivals were refused at
// the in-flight cap, and how late the generator fired each arrival. Latency
// is charged from the due time, not from when the election actually began,
// so lateness of any cause — a stalled generator, a saturated host — lands
// on every election it delayed.
func (o openLoop) run(done *atomic.Int64, elect func(i int) sample) (samples []sample, refused int, lag []time.Duration) {
	var (
		mu       sync.Mutex
		inFlight atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < o.count; i++ {
		due := start.Add(time.Duration(i) * o.interval)
		if d := time.Until(due) - spinWindow; d > 0 {
			o.sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		late := time.Since(due)
		lag = append(lag, late)
		if int(inFlight.Load()) >= o.maxInFlight {
			refused++
			done.Add(1)
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := elect(i)
			s.latency += late
			inFlight.Add(-1)
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
			done.Add(1)
		}(i)
	}
	wg.Wait()
	return samples, refused, lag
}

// errOverrun is returned by guarded when the guarded run did not finish.
type errOverrun struct {
	limit time.Duration
	done  int64
}

func (e errOverrun) Error() string {
	return fmt.Sprintf("run exceeded %v, 3x its sized duration; the %d elections completed so far count as failed", e.limit, e.done)
}

// guarded runs fn, giving up after limit with an errOverrun that reports
// the elections completed so far. fn's goroutines cannot be interrupted —
// a stuck election has no cancel path — so the caller must exit.
func guarded(limit time.Duration, done *atomic.Int64, fn func()) error {
	finished := make(chan struct{})
	go func() {
		fn()
		close(finished)
	}()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-finished:
		return nil
	case <-t.C:
		return errOverrun{limit, done.Load()}
	}
}

// measured is one workload run: the attempted elections plus the process
// and package counters read around them.
type measured struct {
	samples  []sample
	refused  int
	lag      []time.Duration
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	heapLive uint64
	net      transport.Stats // deltas
	coMsgs   int64           // pool coalescer messages / frames
	coFrames int64
	served   int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (e *env) served() int64 {
	var total int64
	if e.cluster != nil {
		for i := 0; i < e.cluster.N(); i++ {
			total += e.cluster.Server(rt.ProcID(i)).Served()
		}
	}
	return total
}

func (e *env) coalesced() (msgs, frames int64) {
	if e.cluster == nil {
		return 0, 0
	}
	return e.cluster.Pool().CoalesceStats()
}

// measure drives the workload for the given duration on a warmed substrate
// and differences every counter around it. spans (nil-safe) records one
// span per election under parent.
func (e *env) measure(seed int64, length time.Duration, spans *spanLog, parent int) (*measured, error) {
	elect := func(i int) sample {
		id := spans.begin("live.Elect", parent)
		s := e.elect(electionSeed(seed, i))
		spans.end(id)
		return s
	}
	m := &measured{}
	var done atomic.Int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	net0, served0 := transport.ReadStats(), e.served()
	coMsgs0, coFrames0 := e.coalesced()
	cpu0, start := cpuTime(), time.Now()
	err := guarded(3*length, &done, func() {
		if e.w.rate > 0 {
			o := openLoop{
				interval:    time.Duration(float64(time.Second) / e.w.rate),
				count:       int(e.w.rate * length.Seconds()),
				maxInFlight: e.w.maxInFlight,
				sleep:       time.Sleep,
			}
			m.samples, m.refused, m.lag = o.run(&done, elect)
		} else {
			m.samples = closedLoop(e.w.inFlight, start.Add(length), &done, elect)
		}
	})
	if err != nil {
		return nil, err
	}
	m.wall, m.cpu = time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	net1 := transport.ReadStats()
	m.net = transport.Stats{
		FramesOut: net1.FramesOut - net0.FramesOut, BytesOut: net1.BytesOut - net0.BytesOut,
		FramesIn: net1.FramesIn - net0.FramesIn, BytesIn: net1.BytesIn - net0.BytesIn,
		BatchesOut: net1.BatchesOut - net0.BatchesOut, MsgsCoalesced: net1.MsgsCoalesced - net0.MsgsCoalesced,
	}
	coMsgs1, coFrames1 := e.coalesced()
	m.coMsgs, m.coFrames, m.served = coMsgs1-coMsgs0, coFrames1-coFrames0, e.served()-served0
	// Retained state: what the substrate still holds once the run's garbage
	// is gone. Two collections, so sync.Pool victim caches empty too.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m.heapLive = ms1.HeapAlloc
	return m, nil
}

// attempted and failed count elections as the driver's contract does:
// errors, timeouts, refused arrivals and failed validity checks all fail.
func (m *measured) attempted() int { return len(m.samples) + m.refused }

func (m *measured) failed() (n int, first error) {
	n = m.refused
	if n > 0 {
		first = fmt.Errorf("%d arrivals refused at the in-flight cap", n)
	}
	for _, s := range m.samples {
		if s.err != nil {
			n++
			if first == nil {
				first = s.err
			}
		}
	}
	return n, first
}

// latencies returns the valid elections' latencies in milliseconds.
func (m *measured) latencies() []float64 {
	out := make([]float64, 0, len(m.samples))
	for _, s := range m.samples {
		if s.err == nil {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// sums totals the valid elections' per-election measures.
type sums struct{ valid, rounds, calls, msgs, bytes float64 }

func (m *measured) sums() sums {
	var t sums
	for _, s := range m.samples {
		if s.err == nil {
			t.valid++
			t.rounds += float64(s.rounds)
			t.calls += float64(s.calls)
			t.msgs += float64(s.msgs)
			t.bytes += float64(s.bytes)
		}
	}
	return t
}

// endToEnd computes the end-to-end metrics of one run (setup_s is the
// caller's). Per-election means run over the valid elections.
func (m *measured) endToEnd() map[string]float64 {
	lats, t := m.latencies(), m.sums()
	return map[string]float64{
		"election_p50_ms":         percentile(lats, 0.50),
		"election_p95_ms":         percentile(lats, 0.95),
		"elections_per_s":         t.valid / m.wall.Seconds(),
		"cpu_ms_per_election":     ratio(ms(m.cpu), t.valid),
		"allocs_per_election":     ratio(float64(m.mallocs), t.valid),
		"heap_live_mb":            float64(m.heapLive) / (1 << 20),
		"msgs_per_election":       ratio(t.msgs, t.valid),
		"wire_bytes_per_election": ratio(t.bytes, t.valid),
		"comm_calls_per_election": ratio(t.calls, t.valid),
	}
}

// counters computes the per-layer metrics read around the run.
func (m *measured) counters() map[string]float64 {
	t := m.sums()
	lag := make([]float64, len(m.lag))
	for i, d := range m.lag {
		lag[i] = ms(d)
	}
	failed, _ := m.failed()
	return map[string]float64{
		failedShare:                      ratio(float64(failed), float64(m.attempted())),
		"benchmark.generator_lag_p95_ms": percentile(lag, 0.95),
		"core.rounds_per_election":       ratio(t.rounds, t.valid),
		"electd.msgs_per_frame":          ratio(float64(m.coMsgs), float64(m.coFrames)),
		"electd.served_per_election":     ratio(float64(m.served), t.valid),
		"wire.bytes_per_msg":             ratio(t.bytes, t.msgs),
		"transport.frames_per_election":  ratio(float64(m.net.FramesOut), t.valid),
		"transport.bytes_per_election":   ratio(float64(m.net.BytesOut), t.valid),
		"transport.batch_fill":           ratio(float64(m.net.MsgsCoalesced), float64(m.net.BatchesOut)),
		"transport.framing_overhead":     ratio(float64(m.net.BytesOut), t.bytes),
	}
}
