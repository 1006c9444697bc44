package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/electd"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/trace"
	"repro/internal/transport"
)

// ErrInvalidRuns is wrapped by the error Run and RunMatrix return, beside
// the complete report, when any election broke the validity contract (see
// ScenarioReport.Violations).
var ErrInvalidRuns = errors.New("campaign: invalid election runs")

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
	// Scenario injects faults and latency into every run (crash
	// schedules, link-delay distributions, slow processors, reordering;
	// see internal/fault). The zero value is fault-free. For a cross
	// product of scenarios, use RunMatrix.
	Scenario fault.Scenario
	// Transport picks the comm substrate: live.TransportChan
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

// Report aggregates one campaign: the row of its one scenario plus the
// pool-level numbers.
type Report struct {
	ScenarioReport
	// Workers echoes the effective worker-pool size.
	Workers int
	// Elapsed is the campaign's wall-clock duration.
	Elapsed time.Duration
	// Throughput is elections completed per second of wall-clock time.
	Throughput float64
	// Shape compares the measured means against the paper's predicted
	// asymptotic shape for this campaign's k and n.
	Shape Shape
}

// ScenarioReport is one row of a matrix campaign: the aggregate of one
// scenario's runs.
type ScenarioReport struct {
	// Scenario is the injected environment this row measured.
	Scenario fault.Scenario
	// Runs is the number of elections executed under the scenario.
	Runs int
	// Latency summarises per-election wall-clock latencies.
	Latency Latency
	// MeanTime is the mean of the paper's time metric (max communicate
	// calls per processor) across runs — the count the sim kernel reports.
	MeanTime float64
	// MaxRounds is the highest election round reached in any run.
	MaxRounds int
	// MeanRounds is the mean of the per-run maximum election round, and
	// MeanMsgs the mean point-to-point message count per run. Together with
	// Shape they let a report check the paper's complexity claims: Theorem
	// A.5 bounds rounds by O(log* k) and total messages by O(kn).
	MeanRounds float64
	MeanMsgs   float64
	// Elected counts runs that ended with a unique surviving winner,
	// WinnerCrashed those in which every survivor lost because the
	// linearized winner crashed first, and NoQuorum those in which no
	// participant crashed yet none could assemble majority quorums —
	// possible only under NoQuorumOK scenarios (never-healing partitions)
	// where every client gave up with a typed fault.NoQuorumError. A run
	// whose election returned an error has no outcome to book, so the
	// three sum to Runs when Invalid is 0. Crashed totals the participants
	// killed across all runs and Starved those that gave up quorumless.
	// All are scenario-driven: a fault-free campaign reports Elected == Runs.
	Elected, WinnerCrashed, NoQuorum, Crashed, Starved int
	// Invalid counts the runs that broke the validity contract, and
	// Violations carries one line per broken clause, in run order.
	Invalid    int
	Violations []string
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
	switch cfg.Transport {
	case "":
		cfg.Transport = live.TransportChan
	case live.TransportChan, live.TransportTCP, live.TransportUDP:
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
	if err := sc.Validate(cfg.N); err != nil {
		return fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
	}
	return nil
}

// judgedRun is one election run and the verdict on it.
type judgedRun struct {
	res    live.Result
	failed bool     // the election returned an error: no outcome to book
	bad    []string // the verdict's violations; empty for a valid run
}

// runOne executes election run idx under scenario sc and judges it.
func (cfg *Config) runOne(sc fault.Scenario, idx int) judgedRun {
	seed := shardSeed(cfg.BaseSeed, idx)
	res, err := cfg.elect(sc, seed)
	bad := verdict(sc, cfg.N, cfg.K, seed, res, err)
	res.Decisions = nil // judged; the aggregate needs only the counts
	return judgedRun{res: res, failed: err != nil, bad: bad}
}

// elect runs one election with live.Elect, on the campaign's shared
// cluster when it has one.
func (cfg *Config) elect(sc fault.Scenario, seed int64) (live.Result, error) {
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
	return live.Elect(lcfg)
}

// verdict judges one election run against the paper's test-and-set
// contract (Theorem A.5, Lemma A.3) — at most one winner among the
// survivors, and no winner only when the linearized winner crashed or
// starved — and returns one line per broken clause; none means valid.
// err is the run's own error: live.Elect reports two winners, an undecided
// return, a winnerless run with nobody crashed or starved (ErrNoWinner)
// and a timeout that way. The fault plan is re-derived from (sc, n, seed):
// Plan is deterministic, so it is exactly the plan the run executed under.
func verdict(sc fault.Scenario, n, k int, seed int64, res live.Result, err error) []string {
	if err != nil {
		return []string{fmt.Sprintf("seed %d: %v", seed, err)}
	}
	plan, err := sc.Plan(n, seed)
	if err != nil {
		return []string{fmt.Sprintf("seed %d: plan(%d): %v", seed, n, err)}
	}
	var bad []string
	// Every participant is accounted for exactly once: a decision, a
	// scenario crash, or a typed fault.NoQuorumError.
	if got := len(res.Decisions) + len(res.Crashed) + len(res.NoQuorum); got != k {
		bad = append(bad, fmt.Sprintf("seed %d: %d of %d participants accounted for", seed, got, k))
	}
	// A fault.NoQuorumError is only valid for a participant the plan
	// provably starves; an electable participant giving up quorumless means
	// the injection layer lost a quorum it should have been able to form.
	for _, id := range res.NoQuorum {
		if plan == nil || plan.Electable(int(id)) {
			bad = append(bad, fmt.Sprintf("seed %d: electable participant %d gave up with NoQuorumError", seed, id))
		}
	}
	if !sc.NoQuorumOK && len(res.NoQuorum) > 0 {
		bad = append(bad, fmt.Sprintf("seed %d: scenario %q promised electability but %d participants starved",
			seed, sc.Name, len(res.NoQuorum)))
	}
	return bad
}

// Run executes the campaign — under Config.Scenario when set — and
// aggregates its report. It is the single-scenario special case of
// RunMatrix, and like it runs and judges every election: when any run is
// invalid it returns the complete report with an error wrapping
// ErrInvalidRuns.
func Run(cfg Config) (Report, error) {
	m, err := RunMatrix(cfg, []fault.Scenario{cfg.Scenario})
	if len(m.Scenarios) == 0 {
		return Report{}, err
	}
	s := m.Scenarios[0]
	k, n := cfg.K, cfg.N
	if k == 0 {
		k = n
	}
	return Report{
		ScenarioReport: s, Workers: m.Workers,
		Elapsed: m.Elapsed, Throughput: m.Throughput,
		Shape: shapeOf(k, n, s.MeanRounds, s.MeanMsgs),
	}, err
}

// RunMatrix executes the cross product scenarios × Config.Runs seeds on one
// shared worker pool and aggregates a per-scenario report. Job (s, i) uses
// the sharded seed of flat index s·Runs + i, so every cell of the matrix
// runs a decorrelated PRNG stream and a single-scenario matrix reproduces
// Run's seed set exactly. Config.Scenario is ignored — the explicit list
// governs. Every run completes and is judged by the same verdict; when any
// is invalid, RunMatrix returns the complete report together with an error
// that wraps ErrInvalidRuns and names the first violation.
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
	// One system pool for the whole matrix: workers check processor sets
	// (goroutine mailboxes, PRNGs, register maps) out per run and park them
	// again instead of building and tearing down a System per election.
	// Crash-scenario runs ride the same pool — checkout fully resets a
	// recycled system, and crashed slots are only dropped flags, their
	// serve goroutines never exit.
	cfg.spool = live.NewSystemPool(cfg.N, !cfg.Transport.Networked())
	defer cfg.spool.Close()
	if cfg.Transport.Networked() {
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

	// Each judged run lands in the slot of its seed index, so scenario s
	// owns out[s·Runs : (s+1)·Runs], in run order.
	out := make([]judgedRun, total)
	next := make(chan int, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				out[idx] = cfg.runOne(scenarios[idx/cfg.Runs], idx)
			}
		}()
	}
	// Seed-major, round-robin across scenarios: concurrent workers run
	// different scenarios side by side, so on a shared cluster every
	// election has other scenarios' elections as neighbours.
	for i := 0; i < cfg.Runs; i++ {
		for s := range scenarios {
			next <- s*cfg.Runs + i
		}
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	rep := MatrixReport{
		Runs: total, Workers: cfg.Workers,
		Elapsed: elapsed, Throughput: float64(total) / elapsed.Seconds(),
	}
	invalid, first := 0, ""
	for s, sc := range scenarios {
		row := aggregate(sc, out[s*cfg.Runs:(s+1)*cfg.Runs])
		if invalid == 0 && row.Invalid > 0 {
			first = fmt.Sprintf("scenario %q: %s", sc.Name, row.Violations[0])
		}
		invalid += row.Invalid
		rep.Scenarios = append(rep.Scenarios, row)
	}
	if invalid > 0 {
		return rep, fmt.Errorf("%w: %d of %d (first: %s)", ErrInvalidRuns, invalid, total, first)
	}
	return rep, nil
}

// aggregate books one scenario's judged runs into its report row.
func aggregate(sc fault.Scenario, runs []judgedRun) ScenarioReport {
	row := ScenarioReport{Scenario: sc, Runs: len(runs)}
	var lats []time.Duration
	var times, roundSum, msgs int64
	for _, j := range runs {
		if len(j.bad) > 0 {
			row.Invalid++
			row.Violations = append(row.Violations, j.bad...)
		}
		if j.failed {
			continue
		}
		r := j.res
		lats = append(lats, r.Elapsed)
		times += int64(r.Time)
		roundSum += int64(r.Rounds)
		msgs += r.Messages
		row.MaxRounds = max(row.MaxRounds, r.Rounds)
		switch {
		case r.Winner >= 0:
			row.Elected++
		case len(r.Crashed) > 0:
			// The linearized winner was among the crash victims, starved
			// participants beside them or not.
			row.WinnerCrashed++
		default:
			// Nobody won and nobody crashed: the partition starved every
			// client of quorums.
			row.NoQuorum++
		}
		row.Crashed += len(r.Crashed)
		row.Starved += len(r.NoQuorum)
	}
	if len(lats) > 0 {
		done := float64(len(lats))
		row.MeanTime = float64(times) / done
		row.MeanRounds = float64(roundSum) / done
		row.MeanMsgs = float64(msgs) / done
		row.Latency = summarize(lats)
	}
	return row
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
