package electd

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/transport"
)

// Soak is the service-endurance harness: hundreds of thousands of short
// elections over ONE long-running cluster with TTL eviction on, proving
// that a standalone electd deployment neither leaks election state nor
// drifts its heap — the property a benchmark (fresh cluster per run) can
// never witness. It is shared by the soak test, the CI smoke job, and
// `electd -soak`.
//
// The run is batched: elections execute in waves of bounded concurrency,
// and between waves the harness lets the TTL sweeper catch up, forces a GC
// and samples the live heap. Post-GC HeapAlloc with no instance awaiting
// its sweep is the honest signal — it excludes garbage awaiting collection,
// pool slack and the hundreds of finished instances a wave leaves behind
// for one TTL (whose count at an arbitrary instant swings the heap by more
// than the 10% bar), so a rise means state retained past eviction.

// SoakConfig parameterizes one soak run. Zero fields take the defaults
// noted on each.
type SoakConfig struct {
	N         int // servers; default 3
	K         int // participants per election; default 4
	Elections int // total elections; default 2000

	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// The soak's fixed shape: soakWorkers concurrent elections per wave over
// in-process loopback, and a server lifecycle whose TTL and sweep are
// short enough that eviction happens after every wave. soakTTL must stay
// above the longest an election of the soak runs, or the sweeper evicts a
// running election's registers on a majority of servers — a majority of
// crashed registers, outside the model, under which elections ended with
// two winners. Measured under -race on a 2-core host with another
// package's race tests beside it, the soak's p99 election took 112–129 ms
// (max 222 ms); with a second soak beside it as well, 198–212 ms (max
// 354 ms). 500 ms clears both.
// soakMaxLivePerShard is a backstop the soak must never reach: an
// election shed by a busy replica counts as invalid. soakHeapSamples
// post-GC heap samples are taken, after one extra warmup wave that brings
// pools and caches to steady state off the record.
const (
	soakWorkers         = 8
	soakTTL             = 500 * time.Millisecond
	soakSweepInterval   = 20 * time.Millisecond
	soakMaxLivePerShard = 512
	soakHeapSamples     = 16
)

func (cfg *SoakConfig) defaults() {
	if cfg.N <= 0 {
		cfg.N = 3
	}
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if cfg.Elections <= 0 {
		cfg.Elections = 2000
	}
}

// SoakReport is one run's evidence: what ran, what the service counted,
// what the heap did. Check turns it into a verdict.
type SoakReport struct {
	Elections int // elections completed (warmup included)
	// Invalid counts elections without a unique winner or shed by a busy
	// replica — must be 0.
	Invalid int

	// Server-side accounting, summed across replicas at the end.
	Served     int64 // requests answered
	StartedSrv int64 // election instances created
	Evicted    int64 // instances the sweeper reclaimed
	FinalLive  int   // instances still live at the end

	// Client-side accounting, summed over every participant.
	ClientMsgs  int64
	ClientBytes int64

	// HeapAlloc are the post-GC samples, in run order.
	HeapAlloc []uint64
	// FirstQMean and LastQMean are the means of the first and last
	// quartile of samples — the flatness comparison Check applies.
	FirstQMean, LastQMean float64

	// Snapshot is the final metrics scrape, for the artifact and the
	// metrics-vs-own-counts cross-checks.
	Snapshot obs.Snapshot
}

// heapSlack is the absolute give Check allows on top of the 10% relative
// bar: tiny heaps jitter proportionally, and half a megabyte of pool or
// runtime noise is not a leak at any scale this harness runs.
const heapSlack = 512 << 10

// Check applies the acceptance invariants and returns the first violation:
// every election valid, eviction actually running, live state not
// accumulating, the heap's last quartile within 10% (plus absolute slack)
// of its first, and the metrics agreeing with the service's own counters.
func (r *SoakReport) Check() error {
	if r.Invalid != 0 {
		return fmt.Errorf("soak: %d of %d elections had no unique winner or were shed", r.Invalid, r.Elections)
	}
	if r.Evicted == 0 {
		return fmt.Errorf("soak: TTL sweeper evicted nothing across %d elections — eviction is not running", r.Elections)
	}
	if int64(r.FinalLive) >= r.StartedSrv {
		return fmt.Errorf("soak: %d instances live at the end of %d started — election state accumulates", r.FinalLive, r.StartedSrv)
	}
	if r.LastQMean > r.FirstQMean*1.10+heapSlack {
		return fmt.Errorf("soak: heap grew %.0f → %.0f bytes (first vs last quartile mean, +%.1f%%) — leak",
			r.FirstQMean, r.LastQMean, 100*(r.LastQMean-r.FirstQMean)/r.FirstQMean)
	}
	if got := r.Snapshot.Total("electd_requests_served_total"); got != r.Served {
		return fmt.Errorf("soak: /metrics served total %d != servers' own count %d", got, r.Served)
	}
	if got := r.Snapshot.Total("electd_elections_started_total"); got != r.StartedSrv {
		return fmt.Errorf("soak: /metrics started total %d != servers' own count %d", got, r.StartedSrv)
	}
	if got := r.Snapshot.Total("electd_elections_evicted_total"); got != r.Evicted {
		return fmt.Errorf("soak: /metrics evicted total %d != servers' own count %d", got, r.Evicted)
	}
	if r.ClientMsgs == 0 || r.ClientBytes == 0 {
		return fmt.Errorf("soak: client traffic accounting went silent (msgs=%d bytes=%d)", r.ClientMsgs, r.ClientBytes)
	}
	return nil
}

// Soak runs one endurance pass and returns its report; err is non-nil only
// for harness failures (cluster startup), never for invariant violations —
// those are the report's to tell, via Check.
func Soak(cfg SoakConfig) (*SoakReport, error) {
	cfg.defaults()
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	transport.RegisterMetrics(reg)
	cl, err := NewClusterWith(transport.NewLoopback(), cfg.N, ClusterOptions{
		Pool: PoolOptions{Metrics: reg},
		Server: ServerOptions{
			TTL:             soakTTL,
			SweepInterval:   soakSweepInterval,
			MaxLivePerShard: soakMaxLivePerShard,
			Metrics:         reg,
		},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	rep := &SoakReport{}
	var invalid, elections atomic.Int64
	var clientMsgs, clientBytes atomic.Int64

	// runOne runs a single election and judges it: valid when exactly one
	// participant wins and no replica shed it. Seeds derive from the run
	// index so reruns are reproducible.
	runOne := func(run int) {
		id := cl.NextElectionID()
		decisions := make([]core.Decision, cfg.K)
		var shed atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < cfg.K; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p := NewParticipant(rt.ProcID(i), cfg.K, int64(run)*1_000_003+int64(i)+1)
				c := cl.NewComm(p, id, nil)
				if err := CatchBusy(func() {
					s := core.NewState(p, "leaderelect")
					decisions[i] = core.LeaderElectWithState(c, "elect", s)
				}); err != nil {
					shed.Store(true)
				}
				clientMsgs.Add(c.Messages())
				clientBytes.Add(c.Bytes())
			}(i)
		}
		wg.Wait()
		winners := 0
		for _, d := range decisions {
			if d == core.Win {
				winners++
			}
		}
		if shed.Load() || winners != 1 {
			invalid.Add(1)
		}
		elections.Add(1)
	}

	// runWave runs count elections at the soak's concurrency.
	runWave := func(first, count int) {
		idx := make(chan int, count)
		for i := 0; i < count; i++ {
			idx <- first + i
		}
		close(idx)
		workers := min(soakWorkers, count)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for run := range idx {
					runOne(run)
				}
			}()
		}
		wg.Wait()
	}

	wave := cfg.Elections / soakHeapSamples
	if wave < 1 {
		wave = 1
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// An idle instance is gone one TTL plus one sweep after its last
	// request; the rest is margin for a loaded host.
	sweepWait := soakTTL + 10*soakSweepInterval
	runWave(0, wave) // warmup: steady-state the pools off the record
	next := wave
	for s := 0; s < soakHeapSamples && next < cfg.Elections+wave; s++ {
		runWave(next, wave)
		next += wave
		if live := awaitSweep(cl, sweepWait); live > 0 {
			// Not a verdict here: the instances stay in the sample, and
			// Check sees them as heap growth and as FinalLive.
			logf("soak: %d instances still live %v after their wave", live, sweepWait)
		}
		rep.HeapAlloc = append(rep.HeapAlloc, heapSample())
		logf("soak: %d elections, heap %d KiB, %d live instances",
			elections.Load(), rep.HeapAlloc[len(rep.HeapAlloc)-1]>>10, cl.Server(0).Elections())
	}

	// Quiescent point: everything client-side has returned. Stop the
	// sweepers before reading, so the counters cannot move between the
	// servers' own reads and the metrics snapshot they are checked against.
	for i := 0; i < cl.N(); i++ {
		cl.Server(rt.ProcID(i)).Close() //nolint:errcheck // always nil
	}
	rep.Elections = int(elections.Load())
	rep.Invalid = int(invalid.Load())
	rep.ClientMsgs = clientMsgs.Load()
	rep.ClientBytes = clientBytes.Load()
	for i := 0; i < cl.N(); i++ {
		srv := cl.Server(rt.ProcID(i))
		rep.Served += srv.Served()
		rep.StartedSrv += srv.Started()
		rep.Evicted += srv.Evicted()
		rep.FinalLive += srv.Elections()
	}
	rep.FirstQMean, rep.LastQMean = quartileMeans(rep.HeapAlloc)
	rep.Snapshot = reg.Snapshot()
	return rep, nil
}

// awaitSweep waits, up to timeout, for every server's sweeper to reclaim
// the instances the finished wave left idle, and returns how many are
// still live. No client is running, so nothing re-arms an instance's TTL.
func awaitSweep(cl *Cluster, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		live := 0
		for i := 0; i < cl.N(); i++ {
			live += cl.Server(rt.ProcID(i)).Elections()
		}
		if live == 0 || !time.Now().Before(deadline) {
			return live
		}
		time.Sleep(time.Millisecond)
	}
}

// heapSample forces two collections and reads the live heap: the first
// moves every sync.Pool's contents to its victim cache, the second frees
// them, so the wire buffers and pending slots parked in pools — whose
// number follows the last wave's peak concurrency, not the state the
// service retains — are out of the sample.
func heapSample() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quartileMeans returns the means of the first and last quarter of the
// samples (at least one sample each).
func quartileMeans(samples []uint64) (first, last float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	q := len(samples) / 4
	if q < 1 {
		q = 1
	}
	for _, v := range samples[:q] {
		first += float64(v)
	}
	for _, v := range samples[len(samples)-q:] {
		last += float64(v)
	}
	return first / float64(q), last / float64(q)
}
