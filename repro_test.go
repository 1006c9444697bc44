package repro_test

import (
	"errors"
	"testing"

	"repro"
	"repro/internal/core"
)

func TestElectDefaults(t *testing.T) {
	res, err := repro.Elect(repro.WithSeed(1))
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if res.Winner < 0 || res.Winner >= 16 {
		t.Fatalf("winner = %d", res.Winner)
	}
	if len(res.Decisions) != 16 {
		t.Fatalf("decisions = %d, want 16", len(res.Decisions))
	}
	wins := 0
	for _, d := range res.Decisions {
		if d == core.Win {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("wins = %d", wins)
	}
	if res.Time < 1 || res.Messages < 1 || res.Rounds < 1 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
}

func TestElectTournament(t *testing.T) {
	res, err := repro.Elect(
		repro.WithN(16),
		repro.WithAlgorithm(repro.Tournament),
		repro.WithSchedule(repro.LockStep),
		repro.WithSeed(2),
	)
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if res.Winner < 0 {
		t.Fatal("no winner")
	}
}

func TestElectPartialParticipation(t *testing.T) {
	res, err := repro.Elect(repro.WithN(32), repro.WithParticipants(4), repro.WithSeed(3))
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if len(res.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(res.Decisions))
	}
	if int(res.Winner) >= 4 {
		t.Fatalf("winner %d outside the participant set", res.Winner)
	}
}

func TestElectDeterministic(t *testing.T) {
	a, err := repro.Elect(repro.WithN(24), repro.WithSeed(7))
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	b, err := repro.Elect(repro.WithN(24), repro.WithSeed(7))
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if a.Winner != b.Winner || a.Messages != b.Messages || a.Time != b.Time {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestElectValidation(t *testing.T) {
	if _, err := repro.Elect(repro.WithN(0)); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := repro.Elect(repro.WithN(4), repro.WithParticipants(5)); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := repro.Elect(repro.WithN(1 << 13)); err == nil {
		t.Fatal("n beyond the register store's owner bound accepted")
	}
}

// TestCampaignRejectsSimOnlyOptions: a campaign runs Live elections only,
// so the Sim backend and the single-run Sim knobs are errors, not ignored.
func TestCampaignRejectsSimOnlyOptions(t *testing.T) {
	for name, opt := range map[string]repro.Option{
		"WithBackend(Sim)": repro.WithBackend(repro.Sim),
		"WithFaults":       repro.WithFaults(1),
		"WithBudget":       repro.WithBudget(1000),
	} {
		if _, err := repro.Campaign(repro.WithN(4), repro.WithRuns(1), opt); err == nil {
			t.Errorf("%s accepted by Campaign", name)
		}
	}
}

func TestRename(t *testing.T) {
	res, err := repro.Rename(repro.WithN(16), repro.WithSeed(4))
	if err != nil {
		t.Fatalf("Rename: %v", err)
	}
	seen := map[int]bool{}
	for id, u := range res.Names {
		if u < 1 || u > 16 {
			t.Fatalf("processor %d got name %d", id, u)
		}
		if seen[u] {
			t.Fatalf("duplicate name %d", u)
		}
		seen[u] = true
	}
	if len(res.Names) != 16 {
		t.Fatalf("names = %d", len(res.Names))
	}
}

func TestRenameRandomScanBaseline(t *testing.T) {
	res, err := repro.Rename(
		repro.WithN(8),
		repro.WithAlgorithm(repro.RandomScan),
		repro.WithSchedule(repro.LockStep),
		repro.WithSeed(5),
	)
	if err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if len(res.Names) != 8 {
		t.Fatalf("names = %d", len(res.Names))
	}
}

func TestRenameRejectsTournament(t *testing.T) {
	if _, err := repro.Rename(repro.WithAlgorithm(repro.Tournament)); err == nil {
		t.Fatal("tournament accepted as renaming algorithm")
	}
}

func TestSiftVariants(t *testing.T) {
	for _, algo := range []repro.Algorithm{repro.BasicSift, repro.HetSift, repro.NaiveSift} {
		res, err := repro.Sift(
			repro.WithN(32),
			repro.WithAlgorithm(algo),
			repro.WithSchedule(repro.LockStep),
			repro.WithSeed(6),
		)
		if err != nil {
			t.Fatalf("Sift(%s): %v", algo, err)
		}
		if res.Survivors < 1 || res.Survivors > 32 {
			t.Fatalf("Sift(%s): survivors = %d", algo, res.Survivors)
		}
	}
}

func TestSiftRejectsRenaming(t *testing.T) {
	if _, err := repro.Sift(repro.WithAlgorithm(repro.RandomScan)); err == nil {
		t.Fatal("renaming accepted as sifting algorithm")
	}
}

func TestElectUnderCrashesMayHaveNoWinner(t *testing.T) {
	// With the crashing schedule the winner may die before deciding; the
	// API reports that case as ErrNoWinner, never as a phantom winner.
	sawWinner, sawNoWinner := false, false
	for seed := int64(0); seed < 10; seed++ {
		res, err := repro.Elect(
			repro.WithN(16),
			repro.WithSchedule(repro.Crashing),
			repro.WithFaults(7),
			repro.WithSeed(seed),
		)
		switch {
		case err == nil:
			sawWinner = true
			if res.Winner < 0 {
				t.Fatal("nil error with no winner")
			}
		case errors.Is(err, repro.ErrNoWinner):
			sawNoWinner = true
		default:
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
	if !sawWinner {
		t.Fatal("crashes prevented every election from electing (suspicious)")
	}
	_ = sawNoWinner // either outcome is legal; both together show the API surface
}

// TestSimGolden pins the seeded sim kernel across commits: every row's
// literals were generated at the commit before the register stores became
// one (internal/regstore), so a store change that perturbs what the sim can
// observe — entry order, sizes, merge outcomes — fails here, where
// TestElectDeterministic (two runs of one binary) cannot see it. outcome is
// the winner's id for elections, the survivor count for single sifts and
// Σ (id+1)·name for renaming.
func TestSimGolden(t *testing.T) {
	type measures struct {
		outcome, rounds, time, calls int
		msgs, bytes                  int64
	}
	sum := func(xs []int) (s int) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	elect := func(opts ...repro.Option) (measures, error) {
		r, err := repro.Elect(opts...)
		return measures{int(r.Winner), r.Rounds, r.Time, sum(r.Stats.CommCalls), r.Messages, r.PayloadBytes}, err
	}
	sift := func(opts ...repro.Option) (measures, error) {
		r, err := repro.Sift(opts...)
		return measures{r.Survivors, 0, r.Stats.MaxCommunicateCalls(), sum(r.Stats.CommCalls), r.Stats.MessagesSent, r.Stats.PayloadBytes}, err
	}
	rename := func(opts ...repro.Option) (measures, error) {
		r, err := repro.Rename(opts...)
		names := 0
		for id, name := range r.Names {
			names += (int(id) + 1) * name
		}
		return measures{names, 0, r.Time, sum(r.Stats.CommCalls), r.Messages, r.Stats.PayloadBytes}, err
	}
	for _, row := range []struct {
		name string
		run  func(...repro.Option) (measures, error)
		opts []repro.Option
		want measures
	}{
		{"poisonpill/n16/seed1", sift, []repro.Option{repro.WithAlgorithm(repro.BasicSift), repro.WithN(16), repro.WithSeed(1)}, measures{3, 0, 3, 48, 1439, 38065}},
		{"het-poisonpill/n32/seed2", sift, []repro.Option{repro.WithAlgorithm(repro.HetSift), repro.WithN(32), repro.WithSeed(2)}, measures{3, 0, 4, 128, 7935, 1469937}},
		{"leaderelect/n24/seed7", elect, []repro.Option{repro.WithN(24), repro.WithSeed(7)}, measures{18, 6, 34, 248, 11408, 743728}},
		{"leaderelect/n64/seed3", elect, []repro.Option{repro.WithN(64), repro.WithSeed(3)}, measures{35, 7, 40, 568, 71568, 21785400}},
		{"leaderelect/n32k8/lockstep/seed5", elect, []repro.Option{repro.WithN(32), repro.WithParticipants(8), repro.WithSchedule(repro.LockStep), repro.WithSeed(5)}, measures{5, 4, 22, 84, 5208, 142228}},
		{"tournament/n16/seed2", elect, []repro.Option{repro.WithAlgorithm(repro.Tournament), repro.WithN(16), repro.WithSeed(2)}, measures{11, 7, 46, 369, 11070, 246390}},
		{"renaming/n8/seed4", rename, []repro.Option{repro.WithN(8), repro.WithSeed(4)}, measures{149, 0, 40, 170, 2380, 59626}},
		{"renaming/n16/staleviews/seed6", rename, []repro.Option{repro.WithN(16), repro.WithSchedule(repro.StaleViews), repro.WithSeed(6)}, measures{1152, 0, 13, 208, 6231, 160363}},
	} {
		got, err := row.run(row.opts...)
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
		} else if got != row.want {
			t.Errorf("%s: got %+v, want %+v", row.name, got, row.want)
		}
	}
}
