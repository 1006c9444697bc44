package campaign

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/electd"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Backend selects the execution backend elections run on.
type Backend string

// Backends understood by the engine.
const (
	// BackendSim is the deterministic discrete-event kernel (virtual time,
	// adversary schedules available).
	BackendSim Backend = "sim"
	// BackendLive is the real-concurrency goroutine runtime (wall-clock
	// time, OS scheduling).
	BackendLive Backend = "live"
)

// shardSeed derives run idx's seed from the base seed with the full
// splitmix64 step (stride + finalizer). The finalizer matters: the live
// backend internally strides per-processor seeds by the same golden-ratio
// constant (live.SeedStride), so plain Base+idx·stride would hand
// processor i of run r and processor i−1 of run r+1 identical PRNG
// streams. Hashing decorrelates the runs, keeping campaign statistics
// over genuinely independent samples.
func shardSeed(base int64, idx int) int64 {
	z := uint64(base) + uint64(idx)*live.SeedStride
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Config parameterises one campaign.
type Config struct {
	// Runs is the number of elections to execute. Default 128.
	Runs int
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// N is the system size; K the participants (0 means K = N).
	N, K int
	// BaseSeed anchors the sharded per-run seeds; equal base seeds re-run
	// the same seed set. Run i uses splitmix64(BaseSeed, i).
	BaseSeed int64
	// Algorithm picks the protocol (default live.AlgoPoisonPill).
	Algorithm live.Algorithm
	// Backend picks the runtime (default BackendLive).
	Backend Backend
	// Schedule picks the adversary for BackendSim runs (default fair).
	// BackendLive has no adversary; setting this errors there.
	Schedule expt.Schedule
	// Scenario injects faults and latency into BackendLive runs (crash
	// schedules, link-delay distributions, slow processors, reordering;
	// see internal/fault). The zero value is fault-free. Active scenarios
	// require BackendLive: the sim backend's adversary schedules already
	// control delay and crashes. For a cross product of scenarios, use
	// RunMatrix.
	Scenario fault.Scenario
	// Transport picks the BackendLive comm substrate: live.TransportChan
	// (default), live.TransportTCP or live.TransportUDP. Over a networked
	// transport a fault-free campaign shares one electd cluster — n
	// loopback servers — and multiplexes its elections onto it by election
	// ID, so hundreds of runs exercise a single set of listening servers
	// like traffic on a deployed service. Link-only fault scenarios
	// (partitions, drops, latency) share the cluster too — their injection
	// is client-side and scoped per election. Campaigns with crash
	// scenarios run one cluster per election instead: crashing a shared
	// server would leak faults across runs.
	Transport live.Transport
	// Trace, when non-nil, records phase-level spans for every run into the
	// given flight recorder: client pool, transport and server spans on the
	// TCP substrate (shared cluster and per-run clusters alike), send and
	// quorum-wait spans on the channel substrate. Nil keeps every hot path
	// byte-identical to an untraced campaign.
	Trace *trace.Recorder

	// cluster is the campaign-owned shared server set of a TCP campaign.
	cluster *electd.Cluster
	// spool recycles whole live Systems across the campaign's runs: workers
	// check systems out instead of paying NewSystem/Shutdown per election.
	spool *live.SystemPool
}

// Latency summarises a campaign's per-election wall-clock latencies.
type Latency struct {
	Mean, P50, P90, P99, Max time.Duration
}

// Shape relates a campaign's measured round and message means to the
// paper's asymptotic predictions (Theorem A.5): with k participants an
// election takes O(log* k) rounds per processor and O(kn) total messages.
// The ratios are diagnostics, not pass/fail gates — the constants hidden
// by the O notation are modest but real — yet a ratio that grows with k
// or n signals a regression toward tournament (Θ(log k)) behaviour.
type Shape struct {
	// K and N echo the campaign's participant count and system size.
	K, N int
	// LogStarK is log* k, the paper's round-shape; RoundsRatio divides
	// the measured mean max-round by log* k + 2 (the +2 absorbs the
	// final solo rounds a winner needs to notice it is alone).
	LogStarK    int
	RoundsRatio float64
	// KN is k·n, the paper's message-shape; MsgsRatio divides the
	// measured mean message count by it.
	KN        int
	MsgsRatio float64
}

// shapeOf computes the paper-shape diagnostics from measured means.
func shapeOf(k, n int, meanRounds, meanMsgs float64) Shape {
	s := Shape{K: k, N: n, LogStarK: expt.LogStar(float64(k)), KN: k * n}
	s.RoundsRatio = meanRounds / float64(s.LogStarK+2)
	if s.KN > 0 {
		s.MsgsRatio = meanMsgs / float64(s.KN)
	}
	return s
}

// Report aggregates one campaign.
type Report struct {
	// Runs and Workers echo the effective configuration.
	Runs, Workers int
	// Elapsed is the campaign's wall-clock duration.
	Elapsed time.Duration
	// Throughput is elections completed per second of wall-clock time.
	Throughput float64
	// Latency summarises per-election wall-clock latencies.
	Latency Latency
	// MeanTime is the mean of the paper's time metric (max communicate
	// calls per processor) across runs — comparable across backends.
	MeanTime float64
	// MaxRounds is the highest election round reached in any run.
	MaxRounds int
	// MeanRounds is the mean of the per-run maximum election round, and
	// MeanMsgs the mean point-to-point message count per run. Together with
	// Shape they let a report check the paper's complexity claims: Theorem
	// A.5 bounds rounds by O(log* k) and total messages by O(kn).
	MeanRounds float64
	MeanMsgs   float64
	// Shape compares the measured means against the paper's predicted
	// asymptotic shape for this campaign's k and n.
	Shape Shape
	// Elected counts runs that ended with a unique surviving winner,
	// WinnerCrashed those in which every survivor lost because the
	// linearized winner crashed first, and NoQuorum those in which no
	// participant crashed yet none could assemble majority quorums —
	// possible only under NoQuorumOK scenarios (never-healing partitions)
	// where every client aborted with a typed fault.NoQuorumError. The
	// three always sum to Runs. Crashed totals the participants killed
	// across all runs and Starved those that aborted quorumless. All are
	// scenario-driven: a fault-free campaign reports Elected == Runs.
	Elected, WinnerCrashed, NoQuorum, Crashed, Starved int
}

// ScenarioReport is one row of a matrix campaign: the aggregate of one
// scenario's runs.
type ScenarioReport struct {
	// Scenario is the injected environment this row measured.
	Scenario fault.Scenario
	// Runs is the number of elections executed under the scenario.
	Runs int
	// Latency summarises the scenario's per-election wall-clock latencies.
	Latency Latency
	// MeanTime is the mean of the paper's time metric across the
	// scenario's runs.
	MeanTime float64
	// MaxRounds is the highest election round reached under the scenario.
	MaxRounds int
	// MeanRounds and MeanMsgs mirror Report's paper-shape counters for the
	// scenario's runs.
	MeanRounds float64
	MeanMsgs   float64
	// Elected, WinnerCrashed, NoQuorum, Crashed and Starved are the
	// election-validity counts; see Report.
	Elected, WinnerCrashed, NoQuorum, Crashed, Starved int
}

// MatrixReport aggregates a scenario-matrix campaign.
type MatrixReport struct {
	// Runs is the total number of elections across every scenario;
	// Workers is the shared worker-pool size.
	Runs, Workers int
	// Elapsed is the whole matrix's wall-clock duration and Throughput
	// its overall elections per second (scenarios interleave on the one
	// pool, so per-scenario throughput is not separable).
	Elapsed    time.Duration
	Throughput float64
	// Scenarios holds one report per scenario, in input order.
	Scenarios []ScenarioReport
}

func (cfg *Config) normalize() error {
	if cfg.Runs == 0 {
		cfg.Runs = 128
	}
	if cfg.Runs < 1 {
		return fmt.Errorf("campaign: runs %d must be positive", cfg.Runs)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("campaign: workers %d must be positive", cfg.Workers)
	}
	if cfg.N < 1 {
		return fmt.Errorf("campaign: system size %d must be at least 1", cfg.N)
	}
	if cfg.K == 0 {
		cfg.K = cfg.N
	}
	if cfg.K < 1 || cfg.K > cfg.N {
		return fmt.Errorf("campaign: participants %d must be in [1, %d]", cfg.K, cfg.N)
	}
	switch cfg.Algorithm {
	case "":
		cfg.Algorithm = live.AlgoPoisonPill
	case live.AlgoPoisonPill, live.AlgoTournament:
	default:
		return fmt.Errorf("campaign: %q is not an election algorithm", cfg.Algorithm)
	}
	switch cfg.Backend {
	case "":
		cfg.Backend = BackendLive
	case BackendSim, BackendLive:
	default:
		return fmt.Errorf("campaign: unknown backend %q", cfg.Backend)
	}
	if cfg.Backend == BackendLive && cfg.Schedule != "" && cfg.Schedule != expt.SchedFair {
		return fmt.Errorf("campaign: adversary schedule %q requires the sim backend", cfg.Schedule)
	}
	if cfg.Backend == BackendSim && cfg.Schedule == "" {
		cfg.Schedule = expt.SchedFair
	}
	switch cfg.Transport {
	case "":
		cfg.Transport = live.TransportChan
	case live.TransportChan:
	case live.TransportTCP, live.TransportUDP:
		if cfg.Backend != BackendLive {
			return fmt.Errorf("campaign: the %s transport requires the live backend", cfg.Transport)
		}
	default:
		return fmt.Errorf("campaign: unknown transport %q", cfg.Transport)
	}
	return nil
}

// checkScenario validates one scenario against the campaign configuration.
func (cfg *Config) checkScenario(sc fault.Scenario) error {
	if !sc.Active() {
		return nil
	}
	if cfg.Backend != BackendLive {
		return fmt.Errorf("campaign: scenario %q requires the live backend (sim runs are controlled by adversary schedules)", sc.Name)
	}
	if err := sc.Validate(cfg.N); err != nil {
		return fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
	}
	return nil
}

// runStats reports one completed election run to the aggregator.
type runStats struct {
	lat     time.Duration
	time    int
	rounds  int
	msgs    int64 // point-to-point messages the run exchanged
	elected bool  // a unique surviving winner decided Win
	crashed int   // participants the scenario killed
	starved int   // participants that aborted with fault.NoQuorumError
}

// runOne executes election run idx under scenario sc.
func (cfg *Config) runOne(sc fault.Scenario, idx int) (runStats, error) {
	seed := shardSeed(cfg.BaseSeed, idx)
	switch cfg.Backend {
	case BackendLive:
		lcfg := live.Config{
			N: cfg.N, K: cfg.K, Seed: seed, Algorithm: cfg.Algorithm, Scenario: sc,
			Transport: cfg.Transport, Pool: cfg.spool, Trace: cfg.Trace,
		}
		if cfg.cluster != nil {
			lcfg.Cluster = cfg.cluster
			lcfg.ElectionID = cfg.cluster.NextElectionID()
			// The instance is over once Elect returns (every participant
			// joined); evict its register state so a long campaign doesn't
			// accumulate one store per election on the shared servers.
			defer cfg.cluster.RemoveElection(lcfg.ElectionID)
		}
		res, err := live.Elect(lcfg)
		if err != nil {
			return runStats{}, fmt.Errorf("run %d (seed %d, scenario %q): %w", idx, seed, sc.Name, err)
		}
		return runStats{
			lat: res.Elapsed, time: res.Time, rounds: res.Rounds,
			msgs:    res.Messages,
			elected: res.Winner >= 0, crashed: len(res.Crashed),
			starved: len(res.NoQuorum),
		}, nil
	default: // BackendSim
		start := time.Now()
		r := expt.Run(expt.Config{
			N: cfg.N, K: cfg.K, Seed: seed,
			Algorithm: expt.Algorithm(cfg.Algorithm), Schedule: cfg.Schedule,
		})
		elapsed := time.Since(start)
		if r.Err != nil {
			return runStats{}, fmt.Errorf("run %d (seed %d): %w", idx, seed, r.Err)
		}
		if w := r.Winners(); w != 1 {
			return runStats{}, fmt.Errorf("run %d (seed %d): %d winners", idx, seed, w)
		}
		return runStats{
			lat: elapsed, time: r.Stats.MaxCommunicateCalls(),
			rounds: r.MaxRound, msgs: int64(r.Stats.MessagesSent),
			elected: true,
		}, nil
	}
}

// Run executes the campaign — under Config.Scenario when set — and
// aggregates its report. The first run error aborts the campaign
// (remaining queued runs are skipped). It is the single-scenario special
// case of RunMatrix.
func Run(cfg Config) (Report, error) {
	m, err := RunMatrix(cfg, []fault.Scenario{cfg.Scenario})
	if err != nil {
		return Report{}, err
	}
	s := m.Scenarios[0]
	k, n := cfg.K, cfg.N
	if k == 0 {
		k = n
	}
	return Report{
		Runs: m.Runs, Workers: m.Workers,
		Elapsed: m.Elapsed, Throughput: m.Throughput,
		Latency: s.Latency, MeanTime: s.MeanTime, MaxRounds: s.MaxRounds,
		MeanRounds: s.MeanRounds, MeanMsgs: s.MeanMsgs,
		Shape:   shapeOf(k, n, s.MeanRounds, s.MeanMsgs),
		Elected: s.Elected, WinnerCrashed: s.WinnerCrashed,
		NoQuorum: s.NoQuorum, Crashed: s.Crashed, Starved: s.Starved,
	}, nil
}

// RunMatrix executes the cross product scenarios × Config.Runs seeds on one
// shared worker pool and aggregates a per-scenario report. Job (s, i) uses
// the sharded seed of flat index s·Runs + i, so every cell of the matrix
// runs a decorrelated PRNG stream and a single-scenario matrix reproduces
// Run's seed set exactly. Config.Scenario is ignored — the explicit list
// governs. The first run error aborts the whole matrix.
func RunMatrix(cfg Config, scenarios []fault.Scenario) (MatrixReport, error) {
	if err := cfg.normalize(); err != nil {
		return MatrixReport{}, err
	}
	if len(scenarios) == 0 {
		return MatrixReport{}, fmt.Errorf("campaign: empty scenario matrix")
	}
	for _, sc := range scenarios {
		if err := cfg.checkScenario(sc); err != nil {
			return MatrixReport{}, err
		}
	}
	if cfg.Backend == BackendLive {
		// One system pool for the whole matrix: workers check processor
		// sets (goroutine mailboxes, PRNGs, register maps) out per run and
		// park them again instead of building and tearing down a System per
		// election. Crash-scenario runs ride the same pool — checkout fully
		// resets a recycled system, and crashed slots are only dropped
		// flags, their serve goroutines never exit.
		cfg.spool = live.NewSystemPool(cfg.N, !cfg.Transport.Networked())
		defer cfg.spool.Close()
	}
	if cfg.Backend == BackendLive && cfg.Transport.Networked() {
		// One shared server set for the whole matrix: every run multiplexes
		// onto it under a fresh election ID. Crash scenarios preclude the
		// sharing — crashing a shared server would leak faults across
		// elections — so those matrices fall back to one cluster per run.
		// Link-only scenarios (partitions, flaky links, latency: no crash
		// schedule) keep the shared cluster: their faults are injected on
		// the client side of the pool, scoped to one election's clients, so
		// a partitioned run's siblings never feel it — the blast radius the
		// chaos grid measures.
		shared := true
		for _, sc := range scenarios {
			if sc.Active() && !sc.LinkOnly() {
				shared = false
				break
			}
		}
		if shared {
			spec := transport.Spec{Name: string(cfg.Transport), Trace: cfg.Trace}
			cluster, err := electd.NewClusterSpec(spec, cfg.N, electd.ClusterOptions{
				Server: electd.ServerOptions{Trace: cfg.Trace},
			})
			if err != nil {
				return MatrixReport{}, fmt.Errorf("campaign: start electd cluster: %w", err)
			}
			defer cluster.Close()
			cfg.cluster = cluster
		}
	}
	total := len(scenarios) * cfg.Runs

	// Per-worker, per-scenario accumulators: no shared state on the hot
	// path except the abort flag, which lets the first error stop every
	// worker instead of letting the survivors grind through the remaining
	// queued runs.
	type acc struct {
		lats           []time.Duration
		times          int64
		rounds         int
		roundSum       int64 // sum of per-run max rounds, for the shape mean
		msgs           int64 // sum of per-run message counts
		elected, crash int
		noquorum       int // runs in which every participant starved
		starved        int // participants that aborted quorumless
	}
	accs := make([][]acc, cfg.Workers)
	errs := make([]error, cfg.Workers)
	for w := range accs {
		accs[w] = make([]acc, len(scenarios))
	}
	var abort atomic.Bool
	next := make(chan int, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for job := range next {
				if abort.Load() {
					continue // keep draining so the feeder never blocks
				}
				s := job / cfg.Runs
				st, err := cfg.runOne(scenarios[s], job)
				if err != nil {
					errs[w] = err
					abort.Store(true)
					continue
				}
				a := &accs[w][s]
				a.lats = append(a.lats, st.lat)
				a.times += int64(st.time)
				a.roundSum += int64(st.rounds)
				a.msgs += st.msgs
				if st.rounds > a.rounds {
					a.rounds = st.rounds
				}
				if st.elected {
					a.elected++
				} else if st.crashed == 0 && st.starved > 0 {
					// Nobody won and nobody crashed: the partition starved
					// every client of quorums — a no-quorum run, not a
					// winner-crashed one. (A run with both crashes and
					// starvation counts as winner-crashed: the linearized
					// winner was among the crash victims.)
					a.noquorum++
				}
				a.crash += st.crashed
				a.starved += st.starved
			}
		}(w)
	}
	for job := 0; job < total; job++ {
		next <- job
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	rep := MatrixReport{Runs: total, Workers: cfg.Workers, Elapsed: elapsed}
	for _, err := range errs {
		if err != nil {
			return rep, fmt.Errorf("campaign: %w", err)
		}
	}
	completed := 0
	for s, sc := range scenarios {
		row := ScenarioReport{Scenario: sc, Runs: cfg.Runs}
		var lats []time.Duration
		var times, roundSum, msgs int64
		for w := range accs {
			a := &accs[w][s]
			lats = append(lats, a.lats...)
			times += a.times
			roundSum += a.roundSum
			msgs += a.msgs
			if a.rounds > row.MaxRounds {
				row.MaxRounds = a.rounds
			}
			row.Elected += a.elected
			row.NoQuorum += a.noquorum
			row.Crashed += a.crash
			row.Starved += a.starved
		}
		completed += len(lats)
		if len(lats) == cfg.Runs {
			row.WinnerCrashed = cfg.Runs - row.Elected - row.NoQuorum
			row.MeanTime = float64(times) / float64(cfg.Runs)
			row.MeanRounds = float64(roundSum) / float64(cfg.Runs)
			row.MeanMsgs = float64(msgs) / float64(cfg.Runs)
			row.Latency = summarize(lats)
		}
		rep.Scenarios = append(rep.Scenarios, row)
	}
	if completed != total {
		return rep, fmt.Errorf("campaign: %d of %d runs completed", completed, total)
	}
	rep.Throughput = float64(total) / elapsed.Seconds()
	return rep, nil
}

// summarize sorts a non-empty latency sample and extracts the headline
// percentiles (nearest-rank).
func summarize(lats []time.Duration) Latency {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	rank := func(p float64) time.Duration {
		i := int(p*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return Latency{
		Mean: sum / time.Duration(len(lats)),
		P50:  rank(0.50),
		P90:  rank(0.90),
		P99:  rank(0.99),
		Max:  lats[len(lats)-1],
	}
}

// ScanWorkers runs the same campaign at each worker count and reports one
// Report per count, in order — the scaling curve cmd/livesim prints and
// BenchmarkLiveCampaignThroughput summarises.
func ScanWorkers(cfg Config, workers []int) ([]Report, error) {
	out := make([]Report, 0, len(workers))
	for _, w := range workers {
		c := cfg
		c.Workers = w
		rep, err := Run(c)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}
