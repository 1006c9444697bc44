package live_test

// Cross-backend conformance: for a grid of (n, k, seed, algorithm)
// configurations, the sim backend and the live backend must both satisfy
// the paper's safety properties — exactly one winner, every other
// participant loses. The crash-scenario tests additionally check Theorem
// A.5's fault-tolerant form across the fault-injection matrix: with up to
// ⌈n/2⌉−1 crashes, every surviving participant that decides agrees on a
// unique leader (a winnerless run is legitimate only when the linearized
// winner itself crashed). CI runs this file under the race detector
// (go test -race ./internal/live/...), so the live half also proves the
// backend memory-safe under real interleavings, faults included.

import (
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/rt"
)

// grid is the conformance configuration set. k == 0 means k = n.
var grid = []struct {
	n, k int
}{
	{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {8, 0}, {13, 0}, {16, 0},
	{8, 3}, {16, 5},
}

var seeds = []int64{1, 2, 3}

// checkJudged asserts that the election judge accepts the decisions of an
// election of k participants and names the winner the run reported.
func checkJudged(t *testing.T, label string, k int, decisions map[rt.ProcID]core.Decision, winner rt.ProcID) {
	t.Helper()
	if w, err := core.JudgeElection(k, decisions); err != nil || w != winner {
		t.Fatalf("%s: judged winner %d (%v), reported %d", label, w, err, winner)
	}
}

// checkElection asserts the safety contract shared by both backends.
func checkElection(t *testing.T, label string, k int, res repro.ElectionResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(res.Decisions) != k {
		t.Fatalf("%s: %d decisions, want %d", label, len(res.Decisions), k)
	}
	checkJudged(t, label, k, res.Decisions, res.Winner)
	if res.Time <= 0 {
		t.Fatalf("%s: non-positive time metric %d", label, res.Time)
	}
}

// TestConformanceElection runs the PoisonPill election across the grid on
// both backends through the public repro API.
func TestConformanceElection(t *testing.T) {
	for _, g := range grid {
		for _, seed := range seeds {
			k := g.k
			if k == 0 {
				k = g.n
			}
			opts := []repro.Option{
				repro.WithN(g.n), repro.WithParticipants(k), repro.WithSeed(seed),
			}
			label := fmt.Sprintf("n=%d k=%d seed=%d", g.n, k, seed)

			simRes, err := repro.Elect(opts...)
			checkElection(t, "sim "+label, k, simRes, err)

			liveRes, err := repro.Elect(append(opts, repro.WithBackend(repro.Live))...)
			checkElection(t, "live "+label, k, liveRes, err)
		}
	}
}

// TestConformanceTournament runs the tournament baseline across a smaller
// grid on both backends (tournament matches are costlier per round).
func TestConformanceTournament(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for _, seed := range seeds {
			opts := []repro.Option{
				repro.WithN(n), repro.WithSeed(seed),
				repro.WithAlgorithm(repro.Tournament),
			}
			label := fmt.Sprintf("n=%d seed=%d", n, seed)

			simRes, err := repro.Elect(opts...)
			checkElection(t, "sim tournament "+label, n, simRes, err)

			liveRes, err := repro.Elect(append(opts, repro.WithBackend(repro.Live))...)
			checkElection(t, "live tournament "+label, n, liveRes, err)
		}
	}
}

// TestConformanceSift: both backends guarantee at least one sift survivor
// (Claim 3.1 / Lemma 3.6).
func TestConformanceSift(t *testing.T) {
	for _, algo := range []repro.Algorithm{repro.BasicSift, repro.HetSift} {
		for _, n := range []int{2, 8, 16} {
			for _, seed := range seeds {
				label := fmt.Sprintf("%s n=%d seed=%d", algo, n, seed)
				opts := []repro.Option{
					repro.WithN(n), repro.WithSeed(seed), repro.WithAlgorithm(algo),
				}
				simRes, err := repro.Sift(opts...)
				if err != nil {
					t.Fatalf("sim %s: %v", label, err)
				}
				if simRes.Survivors < 1 {
					t.Fatalf("sim %s: no survivors", label)
				}
				liveRes, err := repro.Sift(append(opts, repro.WithBackend(repro.Live))...)
				if err != nil {
					t.Fatalf("live %s: %v", label, err)
				}
				if liveRes.Survivors < 1 {
					t.Fatalf("live %s: no survivors", label)
				}
			}
		}
	}
}

// scenarioMatrix is the fault-injection conformance matrix: tight crash
// windows so crashes land mid-protocol, alone and combined with link
// latency, slowness and reordering. Delay magnitudes are kept small — the
// suite runs under the race detector.
var scenarioMatrix = []fault.Scenario{
	{Name: "crash-1", Crashes: 1, CrashWindow: 300 * time.Microsecond},
	{Name: "crash-minority", Crashes: fault.CrashMax, CrashWindow: 300 * time.Microsecond},
	{
		Name: "crash-jitter", Crashes: fault.CrashMax, CrashWindow: 500 * time.Microsecond,
		Link: fault.Dist{Kind: fault.Uniform, Jitter: 200 * time.Microsecond},
	},
	{
		Name: "chaos-lite", Crashes: fault.CrashMax, CrashWindow: 500 * time.Microsecond,
		Link:      fault.Dist{Kind: fault.Pareto, Jitter: 30 * time.Microsecond, Alpha: 1.3, Cap: 2 * time.Millisecond},
		SlowProcs: fault.SlowThirdOfN,
		Slow:      fault.Dist{Kind: fault.Uniform, Jitter: 100 * time.Microsecond},

		ReorderProb: 0.25,
		Reorder:     fault.Dist{Kind: fault.Uniform, Jitter: 150 * time.Microsecond},
	},
}

// TestConformanceCrashScenarios: across the scenario matrix, every
// surviving participant decides, decisions partition into at most one WIN
// and the rest LOSE, and a winnerless election implies the winner crashed.
func TestConformanceCrashScenarios(t *testing.T) {
	grid := []struct{ n, k int }{
		{3, 0}, {4, 0}, {5, 0}, {8, 0}, {9, 0}, {16, 0}, {8, 5},
	}
	for _, sc := range scenarioMatrix {
		for _, g := range grid {
			k := g.k
			if k == 0 {
				k = g.n
			}
			for _, seed := range seeds {
				label := fmt.Sprintf("%s n=%d k=%d seed=%d", sc.Name, g.n, k, seed)
				res, err := live.Elect(live.Config{N: g.n, K: g.k, Seed: seed, Scenario: sc})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(res.Crashed) > fault.MaxCrashes(g.n) {
					t.Fatalf("%s: %d participants crashed, model caps crashes at %d",
						label, len(res.Crashed), fault.MaxCrashes(g.n))
				}
				if got := len(res.Decisions) + len(res.Crashed); got != k {
					t.Fatalf("%s: %d decisions + %d crashed != %d participants",
						label, len(res.Decisions), len(res.Crashed), k)
				}
				checkJudged(t, label, k, res.Decisions, res.Winner)
			}
		}
	}
}

// TestConformanceSiftUnderCrashes: a sift round under the full crash budget
// still never kills every *returning* participant — an empty survivor set
// is legitimate only when some participant crashed.
func TestConformanceSiftUnderCrashes(t *testing.T) {
	sc := fault.Scenario{Name: "crash-minority", Crashes: fault.CrashMax, CrashWindow: 200 * time.Microsecond}
	for _, algo := range []live.Algorithm{live.AlgoBasicSift, live.AlgoHetSift} {
		for _, n := range []int{3, 8, 16} {
			for _, seed := range seeds {
				label := fmt.Sprintf("%s n=%d seed=%d", algo, n, seed)
				res, err := live.Sift(live.Config{N: n, Seed: seed, Algorithm: algo, Scenario: sc})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := len(res.Outcomes) + len(res.Crashed); got != n {
					t.Fatalf("%s: %d outcomes + %d crashed != %d participants", label, len(res.Outcomes), len(res.Crashed), n)
				}
				if _, err := core.JudgeSift(n, res.Outcomes); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

// TestScenarioThroughFacade: WithScenario works end to end through the
// public API, and is refused on the sim backend and for unknown names.
func TestScenarioThroughFacade(t *testing.T) {
	res, err := repro.Elect(repro.WithN(8), repro.WithSeed(2),
		repro.WithBackend(repro.Live), repro.WithScenario("crash-minority"))
	if err != nil && err != repro.ErrNoWinner {
		t.Fatalf("scenario election: %v", err)
	}
	if err == repro.ErrNoWinner && len(res.Crashed) == 0 {
		t.Error("ErrNoWinner without any crashed participant")
	}
	if _, err := repro.Elect(repro.WithN(8), repro.WithScenario("heavy-tail")); err == nil {
		t.Error("sim backend accepted a scenario")
	}
	if _, err := repro.Elect(repro.WithN(8), repro.WithBackend(repro.Live),
		repro.WithScenario("no-such-scenario")); err == nil {
		t.Error("unknown scenario name accepted")
	}
	rep, err := repro.Campaign(repro.WithN(8), repro.WithRuns(8), repro.WithWorkers(2),
		repro.WithSeed(3), repro.WithScenario("crash-1"))
	if err != nil {
		t.Fatalf("scenario campaign: %v", err)
	}
	if rep.Elected+rep.WinnerCrashed != rep.Runs {
		t.Errorf("campaign validity counts don't balance: %+v", rep)
	}
	if _, err := repro.Campaign(repro.WithN(8), repro.WithRuns(2), repro.WithBackend(repro.Sim),
		repro.WithSchedule(repro.Crashing), repro.WithFaults(3)); err == nil {
		t.Error("campaign silently accepted WithFaults (it would run fault-free)")
	}
}

// TestLiveBackendRejectsAdversaryOptions: adversary schedules and crash
// faults are sim-only concepts; the live backend must refuse them loudly
// rather than silently ignore them.
func TestLiveBackendRejectsAdversaryOptions(t *testing.T) {
	if _, err := repro.Elect(repro.WithN(4), repro.WithBackend(repro.Live),
		repro.WithSchedule(repro.FlipAware)); err == nil {
		t.Error("live backend accepted an adversary schedule")
	}
	if _, err := repro.Elect(repro.WithN(4), repro.WithBackend(repro.Live),
		repro.WithSchedule(repro.Crashing), repro.WithFaults(1)); err == nil {
		t.Error("live backend accepted crash faults")
	}
	if _, err := repro.Rename(repro.WithN(4), repro.WithBackend(repro.Live)); err == nil {
		t.Error("live backend accepted renaming (unsupported)")
	}
	if _, err := repro.Elect(repro.WithN(4), repro.WithBackend(repro.Live),
		repro.WithBudget(100)); err == nil {
		t.Error("live backend accepted a kernel action budget")
	}
	if _, err := repro.Elect(repro.WithN(4), repro.WithBackend(repro.Backend("quantum"))); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestLiveDirectAPI exercises internal/live.Elect without the repro façade,
// including k < n systems, so the conformance suite also covers the
// subsystem's own entry points.
func TestLiveDirectAPI(t *testing.T) {
	for _, g := range grid {
		res, err := live.Elect(live.Config{N: g.n, K: g.k, Seed: 11})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", g.n, g.k, err)
		}
		k := g.k
		if k == 0 {
			k = g.n
		}
		if len(res.Decisions) != k {
			t.Fatalf("n=%d k=%d: %d decisions", g.n, g.k, len(res.Decisions))
		}
		checkJudged(t, fmt.Sprintf("n=%d k=%d", g.n, g.k), k, res.Decisions, res.Winner)
	}
}
