package expt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/regstore"
	"repro/internal/renaming"
	"repro/internal/sim"
)

// Algorithm selects the protocol under test.
type Algorithm string

// Algorithms understood by the runners.
const (
	// AlgoPoisonPill is the paper's leader election (Figure 6).
	AlgoPoisonPill Algorithm = "poisonpill"
	// AlgoTournament is the [AGTV92] tournament baseline.
	AlgoTournament Algorithm = "tournament"
	// AlgoBasicSift is one round of the basic PoisonPill (Figure 1).
	AlgoBasicSift Algorithm = "basic-sift"
	// AlgoHetSift is one round of the heterogeneous PoisonPill (Figure 2).
	AlgoHetSift Algorithm = "het-sift"
	// AlgoNaiveSift is the introduction's broken sifting strawman.
	AlgoNaiveSift Algorithm = "naive-sift"
	// AlgoHetSqrtBias, AlgoHetInverseBias and AlgoHetFairBias are bias
	// ablations of the heterogeneous round (design-choice experiments).
	AlgoHetSqrtBias    Algorithm = "het-sift-sqrt"
	AlgoHetInverseBias Algorithm = "het-sift-inv"
	AlgoHetFairBias    Algorithm = "het-sift-fair"
	// AlgoRenaming is the paper's renaming algorithm (Figure 3).
	AlgoRenaming Algorithm = "renaming"
	// AlgoRandomScan is the [AAG+10] random-scan renaming baseline.
	AlgoRandomScan Algorithm = "random-scan"
)

// Schedule selects the adversary strategy.
type Schedule string

// Schedules understood by the runners.
const (
	SchedFair       Schedule = "fair"
	SchedLockStep   Schedule = "lockstep"
	SchedSequential Schedule = "sequential"
	SchedSeqRounds  Schedule = "seqrounds"
	SchedFlipAware  Schedule = "flipaware"
	SchedCrash      Schedule = "crash"
	SchedBubble     Schedule = "bubble"
	SchedStaleViews Schedule = "staleviews"
)

// Config parameterises one simulated run.
type Config struct {
	// N is the system size; K the number of participants (0 means K = N).
	N, K int
	// Seed drives all randomness in the run.
	Seed int64
	// Algorithm and Schedule pick the protocol and the adversary.
	Algorithm Algorithm
	Schedule  Schedule
	// Faults is the crash budget for SchedCrash.
	Faults int
	// Budget overrides the kernel action budget (0 = default).
	Budget int64
}

// Result captures everything the experiments need from one run.
type Result struct {
	Config Config
	Stats  sim.Stats
	// Decisions per participant (leader election algorithms).
	Decisions map[sim.ProcID]core.Decision
	// Winner is the participant the election judge found winning; -1 when
	// none won, the run failed, or the algorithm is not an election.
	Winner sim.ProcID
	// Outcomes per participant (single-sift algorithms).
	Outcomes map[sim.ProcID]core.Outcome
	// Names per participant (renaming algorithms).
	Names map[sim.ProcID]int
	// Flips records each participant's first-sift coin (single-sift runs).
	Flips map[sim.ProcID]int
	// MaxRound is the highest election round any participant reached.
	MaxRound int
	// RoundCounts[r-1] is the number of participants whose election reached
	// round r (the Claim A.4 decay series).
	RoundCounts []int
	// Iterations per participant (renaming: while-loop trips; random-scan:
	// trials).
	Iterations map[sim.ProcID]int
	// Picks per participant: the names each one competed for, in order
	// (renaming algorithms).
	Picks map[sim.ProcID][]int
	// Err is the run error or the contract violation Instance.Judge found,
	// if any (callers decide whether it is fatal).
	Err error
}

// Winners counts Win decisions, which Run has already judged.
func (r *Result) Winners() int {
	w := 0
	for _, d := range r.Decisions {
		if d == core.Win {
			w++
		}
	}
	return w
}

// Survivors counts Survive outcomes: the sift tables' measurement.
func (r *Result) Survivors() int {
	s := 0
	for _, o := range r.Outcomes {
		if o == core.Survive {
			s++
		}
	}
	return s
}

// buildAdversary instantiates the configured schedule.
func buildAdversary(cfg Config) sim.Adversary {
	switch cfg.Schedule {
	case SchedFair:
		return adversary.NewFair(cfg.Seed ^ 0x5eed)
	case SchedLockStep, "":
		return adversary.LockStep{}
	case SchedSequential:
		return adversary.NewSequential(nil)
	case SchedSeqRounds:
		return adversary.NewSequentialRounds()
	case SchedFlipAware:
		return adversary.NewFlipAware()
	case SchedCrash:
		return adversary.NewCrashTargeted(cfg.Faults, 0, true, cfg.Seed^0xc4a5)
	case SchedBubble:
		return adversary.NewBubble()
	case SchedStaleViews:
		return adversary.NewStaleViews()
	default:
		panic(fmt.Sprintf("expt: unknown schedule %q", cfg.Schedule))
	}
}

// Validate reports a configuration Run cannot execute: a size out of range
// or a name that is no algorithm or schedule. Run returns it as the
// result's Err.
func (cfg Config) Validate() error {
	if cfg.N < 1 || cfg.K < 0 || cfg.K > cfg.N {
		return fmt.Errorf("expt: n=%d k=%d, want n ≥ 1 and 0 ≤ k ≤ n", cfg.N, cfg.K)
	}
	if cfg.N > regstore.MaxOwners {
		return fmt.Errorf("expt: n=%d exceeds the register store's %d owners", cfg.N, regstore.MaxOwners)
	}
	switch cfg.Algorithm {
	case AlgoPoisonPill, AlgoTournament, AlgoBasicSift, AlgoHetSift, AlgoNaiveSift,
		AlgoHetSqrtBias, AlgoHetInverseBias, AlgoHetFairBias, AlgoRenaming, AlgoRandomScan:
	default:
		return fmt.Errorf("expt: unknown algorithm %q", cfg.Algorithm)
	}
	switch cfg.Schedule {
	case "", SchedFair, SchedLockStep, SchedSequential, SchedSeqRounds, SchedFlipAware,
		SchedCrash, SchedBubble, SchedStaleViews:
	default:
		return fmt.Errorf("expt: unknown schedule %q", cfg.Schedule)
	}
	return nil
}

// Instance is one configured run built and not yet run: a fresh kernel with
// every participant spawned. Run drives its kernel under the configured
// schedule; the schedule explorer drives it under each schedule it visits.
// Either way Judge checks what the participants returned.
type Instance struct {
	// Kernel is ready to run (participants spawned, stores installed).
	Kernel *sim.Kernel
	res    Result
	states map[sim.ProcID]*core.State
}

// hetBiases is the coin bias of each heterogeneous-round algorithm.
var hetBiases = map[Algorithm]core.BiasFunc{
	AlgoHetSift:        core.PaperBias,
	AlgoHetSqrtBias:    core.SqrtBias,
	AlgoHetInverseBias: core.InverseBias,
	AlgoHetFairBias:    core.FairBias,
}

// Build validates cfg and builds its run.
func Build(cfg Config) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K == 0 {
		cfg.K = cfg.N
	}
	return newInstance(cfg, func(in *Instance, p *sim.Proc, c *quorum.Comm) {
		res, id := &in.res, p.ID()
		switch cfg.Algorithm {
		case AlgoPoisonPill:
			res.Decisions[id] = core.LeaderElectWithState(c, "elect", in.state(p, "leaderelect"))
		case AlgoTournament:
			res.Decisions[id] = baseline.TournamentWithState(c, "tourn", in.state(p, "tournament"))
		case AlgoBasicSift:
			res.Outcomes[id] = core.PoisonPill(c, "pp", in.state(p, "basic-sift"))
		case AlgoHetSift, AlgoHetSqrtBias, AlgoHetInverseBias, AlgoHetFairBias:
			res.Outcomes[id] = core.HetPoisonPillWithBias(c, "pp", hetBiases[cfg.Algorithm], in.state(p, "het-sift"))
		case AlgoNaiveSift:
			prob := 1 / math.Sqrt(float64(p.N()))
			res.Outcomes[id] = baseline.NaiveSift(c, "nv", prob, in.state(p, "naive-sift"))
		case AlgoRenaming:
			s := &renaming.State{}
			res.Names[id] = renaming.GetName(c, s)
			res.Iterations[id] = s.Iterations
			res.Picks[id] = s.Picks
		case AlgoRandomScan:
			s := &baseline.RandomScanState{}
			res.Names[id] = baseline.RandomScanRename(c, s)
			res.Iterations[id] = s.Trials
			res.Picks[id] = s.Picks
		}
	}), nil
}

// newInstance builds cfg's kernel and spawns body as each of its first
// cfg.K processors, over its quorum Comm.
func newInstance(cfg Config, body func(in *Instance, p *sim.Proc, c *quorum.Comm)) *Instance {
	maxFaults := 0
	if cfg.Schedule == SchedCrash {
		maxFaults = -1
	}
	in := &Instance{
		Kernel: sim.NewKernel(sim.Config{N: cfg.N, Seed: cfg.Seed, Budget: cfg.Budget, MaxFaults: maxFaults}),
		res: Result{
			Config:     cfg,
			Decisions:  make(map[sim.ProcID]core.Decision),
			Winner:     -1,
			Outcomes:   make(map[sim.ProcID]core.Outcome),
			Names:      make(map[sim.ProcID]int),
			Flips:      make(map[sim.ProcID]int),
			Iterations: make(map[sim.ProcID]int),
			Picks:      make(map[sim.ProcID][]int),
		},
		states: make(map[sim.ProcID]*core.State, cfg.K),
	}
	stores := quorum.InstallStores(in.Kernel)
	for i := 0; i < cfg.K; i++ {
		id := sim.ProcID(i)
		in.Kernel.Spawn(id, func(p *sim.Proc) { body(in, p, quorum.NewComm(p, stores[id])) })
	}
	return in
}

// state publishes p's core.State for the named algorithm and keeps it for
// the result's flips and rounds.
func (in *Instance) state(p *sim.Proc, algorithm string) *core.State {
	s := core.NewState(p, algorithm)
	in.states[p.ID()] = s
	return s
}

// Judge checks what the participants returned against the algorithm's
// contract: core.JudgeElection for the elections, core.JudgeSift for the
// PoisonPill rounds and renaming.JudgeNames for the renamings, and records
// an election's winner in the result. The naive sifting strawman has no
// contract: T10 shows it dying out.
func (in *Instance) Judge() error {
	r := &in.res
	switch r.Config.Algorithm {
	case AlgoPoisonPill, AlgoTournament:
		var err error
		r.Winner, err = core.JudgeElection(r.Config.K, r.Decisions)
		return err
	case AlgoNaiveSift:
		return nil
	case AlgoRenaming, AlgoRandomScan:
		return renaming.JudgeNames(r.Config.N, r.Names)
	default:
		_, err := core.JudgeSift(r.Config.K, r.Outcomes)
		return err
	}
}

// Run executes one configured run and returns its result. A run that
// broke its algorithm's contract (see Instance.Judge) has the violation as
// its Err.
func Run(cfg Config) Result {
	in, err := Build(cfg)
	if err != nil {
		return Result{Config: cfg, Winner: -1, Err: err}
	}
	return in.run(buildAdversary(in.res.Config))
}

// run drives the kernel under adv, judges the run and collects its result.
func (in *Instance) run(adv sim.Adversary) Result {
	res := &in.res
	res.Stats, res.Err = in.Kernel.Run(adv)
	if res.Err == nil {
		res.Err = in.Judge()
	}
	for id, s := range in.states {
		res.Flips[id] = s.Flip
		if s.Round > res.MaxRound {
			res.MaxRound = s.Round
		}
	}
	if res.MaxRound > 0 {
		res.RoundCounts = make([]int, res.MaxRound)
		for _, s := range in.states {
			for r := 1; r <= s.Round; r++ {
				res.RoundCounts[r-1]++
			}
		}
	}
	return *res
}

// runCustomSift runs one basic PoisonPill round with an explicit coin bias
// under the Section 3.2 sequential schedule (the bias-ablation fixture).
func runCustomSift(n int, seed int64, prob float64) Result {
	cfg := Config{N: n, K: n, Seed: seed, Algorithm: AlgoBasicSift}
	return newInstance(cfg, func(in *Instance, p *sim.Proc, c *quorum.Comm) {
		in.res.Outcomes[p.ID()] = core.PoisonPillBiased(c, "pp", prob, in.state(p, "basic-sift"))
	}).run(adversary.NewSequential(nil))
}

// Summary aggregates a sample of measurements.
type Summary struct {
	Mean, Min, Max, P50 float64
	N                   int
}

// Summarize computes mean, min, max and median of a non-empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return Summary{
		Mean: sum / float64(len(sorted)),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P50:  sorted[len(sorted)/2],
		N:    len(sorted),
	}
}

// LogLogSlope fits the least-squares slope of log(y) against log(x): the
// empirical scaling exponent of y = c·x^slope. Points with non-positive
// coordinates are skipped.
func LogLogSlope(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// LogStar computes the iterated logarithm (base 2), the paper's time bound.
func LogStar(n float64) int {
	s := 0
	for n > 1 {
		n = math.Log2(n)
		s++
	}
	return s
}
