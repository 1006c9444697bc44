package campaign

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/rt"
)

// TestCampaignLive: a live-backend campaign completes every run, reports
// coherent aggregates, and its percentiles are ordered.
func TestCampaignLive(t *testing.T) {
	rep, err := Run(Config{Runs: 24, Workers: 4, N: 8, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 24 || rep.Workers != 4 {
		t.Fatalf("report echoes runs=%d workers=%d", rep.Runs, rep.Workers)
	}
	if rep.Throughput <= 0 {
		t.Error("non-positive throughput")
	}
	if rep.MeanTime <= 0 {
		t.Error("non-positive mean time metric")
	}
	l := rep.Latency
	if l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max {
		t.Errorf("unordered percentiles: %+v", l)
	}
	if l.Mean <= 0 {
		t.Error("non-positive mean latency")
	}
}

// TestCampaignTournament: the baseline algorithm runs through the engine.
func TestCampaignTournament(t *testing.T) {
	rep, err := Run(Config{Runs: 6, Workers: 3, N: 4, BaseSeed: 2, Algorithm: live.AlgoTournament})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRounds < 1 {
		t.Error("tournament campaign reached no rounds")
	}
}

// TestCampaignValidation: bad configurations error instead of hanging.
func TestCampaignValidation(t *testing.T) {
	if _, err := Run(Config{Runs: 1, N: 0}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Run(Config{Runs: 1, N: 4, K: 9}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Run(Config{Runs: 1, N: 4, Transport: "carrier-pigeon"}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := Run(Config{Runs: 1, N: 4, Algorithm: "nonsense"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Sift algorithms are rejected eagerly — and with Runs far above the
	// worker count, so a regression to lazily erroring workers would show
	// up as the feeder deadlock this guards against.
	if _, err := Run(Config{Runs: 64, Workers: 2, N: 4, Algorithm: live.AlgoHetSift}); err == nil {
		t.Error("sift algorithm accepted by the election campaign")
	}
	if _, err := Run(Config{
		Runs: 2, N: 4,
		Scenario: fault.Scenario{Name: "too-many", Crashes: 2},
	}); err == nil {
		t.Error("crash count above ⌈n/2⌉−1 accepted")
	}
	if _, err := RunMatrix(Config{Runs: 2, N: 4}, nil); err == nil {
		t.Error("empty scenario matrix accepted")
	}
}

// TestDefaultWorkers: Workers=0 resolves to GOMAXPROCS.
func TestDefaultWorkers(t *testing.T) {
	rep, err := Run(Config{Runs: 4, N: 4, BaseSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS = %d", rep.Workers, runtime.GOMAXPROCS(0))
	}
}

// TestSeedSharding: distinct runs get distinct seeds, and — because the
// live backend strides per-processor seeds by the same golden-ratio
// constant internally — adjacent runs must not produce seeds one stride
// apart (which would alias whole processor PRNG streams across runs).
func TestSeedSharding(t *testing.T) {
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		var prev int64
		for i := 0; i < 64; i++ {
			s := shardSeed(base, i)
			if seen[s] {
				t.Fatalf("seed collision at base=%d i=%d", base, i)
			}
			seen[s] = true
			if i > 0 {
				if d := uint64(s) - uint64(prev); d%live.SeedStride == 0 {
					t.Fatalf("adjacent runs %d,%d are stride-aligned (d=%#x): processor streams alias", i-1, i, d)
				}
			}
			prev = s
		}
	}
}

// TestRunMatrix: the scenario matrix runs every cell, keeps rows in input
// order, and its validity counts balance (Elected + WinnerCrashed = Runs
// per scenario).
func TestRunMatrix(t *testing.T) {
	scenarios := []fault.Scenario{
		fault.Baseline(),
		{Name: "crash", Crashes: fault.CrashMax, CrashWindow: 300 * time.Microsecond},
		fault.HeavyTail(),
	}
	m, err := RunMatrix(Config{Runs: 12, Workers: 4, N: 8, BaseSeed: 3}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 36 {
		t.Fatalf("matrix ran %d elections, want 36", m.Runs)
	}
	if len(m.Scenarios) != 3 {
		t.Fatalf("%d scenario rows, want 3", len(m.Scenarios))
	}
	for i, row := range m.Scenarios {
		if row.Scenario.Name != scenarios[i].Name {
			t.Errorf("row %d is %q, want %q", i, row.Scenario.Name, scenarios[i].Name)
		}
		if row.Elected+row.WinnerCrashed != row.Runs {
			t.Errorf("%s: elected %d + winner-crashed %d != runs %d",
				row.Scenario.Name, row.Elected, row.WinnerCrashed, row.Runs)
		}
		if row.Invalid != 0 || len(row.Violations) != 0 {
			t.Errorf("%s: %d invalid runs: %v", row.Scenario.Name, row.Invalid, row.Violations)
		}
		l := row.Latency
		if l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max {
			t.Errorf("%s: unordered percentiles %+v", row.Scenario.Name, l)
		}
		if row.MeanTime <= 0 {
			t.Errorf("%s: non-positive mean time", row.Scenario.Name)
		}
	}
	base := m.Scenarios[0]
	if base.Elected != base.Runs || base.Crashed != 0 {
		t.Errorf("baseline row reports faults: %+v", base)
	}
	if m.Throughput <= 0 {
		t.Error("non-positive matrix throughput")
	}
}

// TestVerdict: one case per clause the verdict checks, plus the valid
// outcomes. want lists a substring of each expected violation, in order;
// none means the run is valid.
func TestVerdict(t *testing.T) {
	const n = 5
	// decided maps participants lo..n-1 to Lose, and winner (≥ 0) to Win.
	decided := func(lo, winner int) map[rt.ProcID]core.Decision {
		m := map[rt.ProcID]core.Decision{}
		for i := lo; i < n; i++ {
			m[rt.ProcID(i)] = core.Lose
		}
		if winner >= 0 {
			m[rt.ProcID(winner)] = core.Win
		}
		return m
	}
	win := live.Result{Winner: 2, Decisions: decided(0, 2)}
	starved0 := live.Result{Winner: 2, Decisions: decided(1, 2), NoQuorum: []rt.ProcID{0}}
	blackout := fault.Scenario{Name: "blackout", LossProb: 1, LossLinks: fault.AllLinks, NoQuorumOK: true}
	cases := []struct {
		name string
		sc   fault.Scenario
		res  live.Result
		err  error
		want []string
	}{
		{"clean win", fault.Baseline(), win, nil, nil},
		{"elect error: two winners", fault.Baseline(), live.Result{Winner: 1},
			errors.New("live: safety violation: processors 1 and 3 both won"), []string{"both won"}},
		{"elect error: no winner, nobody crashed or starved", fault.Baseline(),
			live.Result{Winner: -1, Decisions: decided(0, -1)}, live.ErrNoWinner, []string{"without a winner"}},
		{"elect error: timeout", fault.Baseline(), live.Result{Winner: -1}, live.ErrTimeout, []string{"timed out"}},
		{"unplannable scenario", fault.Scenario{Name: "over-budget", Crashes: 3}, win, nil, []string{"plan(5)"}},
		{"participant not accounted for", fault.Baseline(),
			live.Result{Winner: 2, Decisions: decided(1, 2)}, nil, []string{"4 of 5 participants accounted for"}},
		{"electable participant in NoQuorum", fault.PartitionMajority(), starved0, nil,
			[]string{"electable participant 0 gave up"}},
		{"starvation under a non-NoQuorumOK scenario", fault.PartitionHeal(), starved0, nil,
			[]string{"electable participant 0 gave up", `"partition-heal" promised electability but 1 participants starved`}},
		{"winnerless with a crash", fault.CrashOne(),
			live.Result{Winner: -1, Decisions: decided(1, -1), Crashed: []rt.ProcID{0}}, nil, nil},
		{"winnerless with everyone starved", blackout,
			live.Result{Winner: -1, NoQuorum: []rt.ProcID{0, 1, 2, 3, 4}}, nil, nil},
	}
	for _, c := range cases {
		got := verdict(c.sc, n, n, 7, c.res, c.err)
		if len(got) != len(c.want) {
			t.Errorf("%s: violations %q, want %d", c.name, got, len(c.want))
			continue
		}
		for i, w := range c.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: violation %q does not name %q", c.name, got[i], w)
			}
		}
	}
}

// TestRunMatrixTCPSharedCluster: a fault-free scenario matrix over the TCP
// transport multiplexes every cell onto one shared electd server set —
// scenarios × seeds riding one quorum system over real sockets, batched by
// default — and still elects a unique winner in every run. Run under -race
// in CI.
func TestRunMatrixTCPSharedCluster(t *testing.T) {
	scenarios := []fault.Scenario{
		fault.Baseline(),
		{Name: "also-fault-free"},
	}
	m, err := RunMatrix(Config{
		Runs: 6, Workers: 4, N: 5, BaseSeed: 21, Transport: live.TransportTCP,
	}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 12 {
		t.Fatalf("matrix ran %d elections, want 12", m.Runs)
	}
	for _, row := range m.Scenarios {
		if row.Elected != row.Runs || row.Crashed != 0 {
			t.Errorf("%q: fault-free TCP row reports faults: %+v", row.Scenario.Name, row)
		}
		if row.MeanTime <= 0 {
			t.Errorf("%q: non-positive mean time", row.Scenario.Name)
		}
	}
}

// TestRunMatrixTCPScenarios: an active scenario forces the TCP matrix onto
// one owned cluster per election (faults must not leak across runs); mixed
// with a fault-free row, both shapes must hold their validity accounting.
// Run under -race in CI.
func TestRunMatrixTCPScenarios(t *testing.T) {
	scenarios := []fault.Scenario{
		fault.Baseline(),
		{Name: "crash-tcp", Crashes: fault.CrashMax, CrashWindow: 300 * time.Microsecond},
	}
	m, err := RunMatrix(Config{
		Runs: 4, Workers: 2, N: 5, BaseSeed: 7, Transport: live.TransportTCP,
	}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range m.Scenarios {
		if row.Elected+row.WinnerCrashed != row.Runs {
			t.Errorf("%q: elected %d + winner-crashed %d != runs %d",
				row.Scenario.Name, row.Elected, row.WinnerCrashed, row.Runs)
		}
	}
	if base := m.Scenarios[0]; base.Elected != base.Runs || base.Crashed != 0 {
		t.Errorf("baseline row reports faults: %+v", base)
	}
}

// TestRunWithScenario: Config.Scenario routes a single-scenario campaign
// through Run, and fault-free campaigns report full validity.
func TestRunWithScenario(t *testing.T) {
	rep, err := Run(Config{
		Runs: 10, Workers: 4, N: 9, BaseSeed: 11,
		Scenario: fault.Scenario{Name: "crash", Crashes: 2, CrashWindow: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elected+rep.WinnerCrashed != rep.Runs {
		t.Errorf("elected %d + winner-crashed %d != runs %d", rep.Elected, rep.WinnerCrashed, rep.Runs)
	}

	plain, err := Run(Config{Runs: 6, Workers: 2, N: 4, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elected != 6 || plain.WinnerCrashed != 0 || plain.Crashed != 0 {
		t.Errorf("fault-free campaign reports faults: %+v", plain)
	}
}

// TestRunMatrixLinkOnlySharedCluster: link-only scenarios (partitions,
// flaky links — no crash schedule) keep the shared TCP cluster: their
// faults are injected client-side, scoped per election, so the matrix
// multiplexes chaos rows and the fault-free control onto one server set
// and every row still holds its validity accounting. Run under -race in CI.
func TestRunMatrixLinkOnlySharedCluster(t *testing.T) {
	scenarios := []fault.Scenario{
		fault.Baseline(),
		fault.PartitionHeal(),
		fault.FlakyAsym(),
	}
	for _, sc := range scenarios[1:] {
		if !sc.LinkOnly() {
			t.Fatalf("%q is not link-only; the test premise is broken", sc.Name)
		}
	}
	m, err := RunMatrix(Config{
		Runs: 4, Workers: 4, N: 5, BaseSeed: 31, Transport: live.TransportTCP,
	}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range m.Scenarios {
		if row.Elected != row.Runs {
			t.Errorf("%q: elected %d of %d on the shared cluster (noquorum=%d crashed=%d starved=%d)",
				row.Scenario.Name, row.Elected, row.Runs, row.NoQuorum, row.Crashed, row.Starved)
		}
	}
}

// TestRunNoQuorumReporting: a scenario that provably starves every client
// (total permanent loss, NoQuorumOK) yields all-no-quorum runs, and the
// report books them apart from winner-crashed: Elected + WinnerCrashed +
// NoQuorum = Runs, with the starved-participant total matching.
func TestRunNoQuorumReporting(t *testing.T) {
	rep, err := Run(Config{
		Runs: 4, Workers: 4, N: 5, BaseSeed: 13,
		Scenario: fault.Scenario{Name: "blackout", LossProb: 1, LossLinks: fault.AllLinks, NoQuorumOK: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoQuorum != rep.Runs || rep.Elected != 0 || rep.WinnerCrashed != 0 {
		t.Errorf("blackout campaign books elected=%d winner-crashed=%d noquorum=%d of %d runs",
			rep.Elected, rep.WinnerCrashed, rep.NoQuorum, rep.Runs)
	}
	if rep.Elected+rep.WinnerCrashed+rep.NoQuorum != rep.Runs {
		t.Errorf("validity counts do not sum to runs: %+v", rep)
	}
	if rep.Starved != rep.Runs*5 {
		t.Errorf("starved %d participants, want %d", rep.Starved, rep.Runs*5)
	}
	if rep.Crashed != 0 {
		t.Errorf("blackout campaign reports %d crashes", rep.Crashed)
	}
}
