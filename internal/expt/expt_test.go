package expt

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// tiny keeps generator tests fast.
var tiny = Scale{Seeds: 2, MaxN: 32}

func TestRunAllAlgorithmsUnderLockStep(t *testing.T) {
	for _, algo := range []Algorithm{
		AlgoPoisonPill, AlgoTournament, AlgoBasicSift, AlgoHetSift,
		AlgoNaiveSift, AlgoRenaming, AlgoRandomScan,
	} {
		r := Run(Config{N: 16, Algorithm: algo, Schedule: SchedLockStep, Seed: 1})
		if r.Err != nil { // the kernel's, or the algorithm's judge's
			t.Fatalf("%s: %v", algo, r.Err)
		}
		if got := len(r.Decisions) + len(r.Outcomes) + len(r.Names); got != 16 {
			t.Fatalf("%s: %d of 16 participants returned", algo, got)
		}
		// NaiveSift has no contract for the judge to check, but this
		// schedule leaves it a survivor.
		if algo == AlgoNaiveSift && r.Survivors() < 1 {
			t.Fatalf("%s: no survivors", algo)
		}
		if r.Stats.MessagesSent == 0 {
			t.Fatalf("%s: no messages recorded", algo)
		}
	}
}

func TestRunAllSchedulesElectLeader(t *testing.T) {
	for _, sched := range []Schedule{
		SchedFair, SchedLockStep, SchedSequential, SchedSeqRounds,
		SchedFlipAware, SchedBubble, SchedStaleViews,
	} {
		r := Run(Config{N: 16, Algorithm: AlgoPoisonPill, Schedule: sched, Seed: 2})
		if r.Err != nil {
			t.Fatalf("%s: %v", sched, r.Err)
		}
		if r.Winner < 0 {
			t.Fatalf("%s: no winner", sched)
		}
	}
}

func TestRunCrashSchedule(t *testing.T) {
	r := Run(Config{N: 16, Algorithm: AlgoPoisonPill, Schedule: SchedCrash, Faults: 3, Seed: 3})
	if r.Err != nil {
		t.Fatalf("crash run: %v", r.Err)
	}
	if len(r.Decisions)+r.Stats.Crashes < 16 {
		t.Fatalf("decided %d + crashed %d < 16", len(r.Decisions), r.Stats.Crashes)
	}

	// Renaming under the same adversary: every survivor still gets a
	// distinct name (Run's judge).
	r = Run(Config{N: 16, Algorithm: AlgoRenaming, Schedule: SchedCrash, Faults: 3, Seed: 3})
	if r.Err != nil {
		t.Fatalf("crash renaming run: %v", r.Err)
	}
	if len(r.Names)+r.Stats.Crashes < 16 {
		t.Fatalf("named %d + crashed %d < 16", len(r.Names), r.Stats.Crashes)
	}
}

// TestRunJudgesEveryAlgorithm: a run whose participants break their
// contract fails with the judge's error, and NaiveSift has none to break.
func TestRunJudgesEveryAlgorithm(t *testing.T) {
	cases := []struct {
		algo   Algorithm
		mutate func(*Result)
		want   string
	}{
		{AlgoPoisonPill, func(r *Result) { r.Decisions[0], r.Decisions[1] = core.Win, core.Win }, "both won"},
		{AlgoTournament, func(r *Result) { r.Decisions[2] = core.Proceed }, "returned PROCEED"},
		// With participants missing, a round in which all died is valid.
		{AlgoHetSift, func(r *Result) { clear(r.Outcomes); r.Outcomes[0] = core.Die }, ""},
		{AlgoBasicSift, func(r *Result) {
			for id := range r.Outcomes {
				r.Outcomes[id] = core.Die
			}
		}, "Claim 3.1"},
		{AlgoNaiveSift, func(r *Result) {
			for id := range r.Outcomes {
				r.Outcomes[id] = core.Die
			}
		}, ""},
		{AlgoRenaming, func(r *Result) { r.Names[0], r.Names[1] = 1, 1 }, "both returned name 1"},
		{AlgoRandomScan, func(r *Result) { r.Names[3] = 9 }, "outside [1, 8]"},
	}
	for _, c := range cases {
		in, err := Build(Config{N: 8, Algorithm: c.algo, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Kernel.Run(nil); err != nil {
			t.Fatalf("%s: %v", c.algo, err)
		}
		if err := in.Judge(); err != nil {
			t.Fatalf("%s: a fault-free run judged %v", c.algo, err)
		}
		if election := len(in.res.Decisions) > 0; election != (in.res.Winner >= 0) {
			t.Fatalf("%s: judged winner %d", c.algo, in.res.Winner)
		}
		c.mutate(&in.res)
		err = in.Judge()
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: broken run judged %v, want %q", c.algo, err, c.want)
		}
		if err != nil && in.res.Winner != -1 {
			t.Errorf("%s: rejected run keeps winner %d", c.algo, in.res.Winner)
		}
	}
}

func TestRunDefaultsKToN(t *testing.T) {
	r := Run(Config{N: 8, Algorithm: AlgoPoisonPill, Schedule: SchedLockStep, Seed: 1})
	if len(r.Decisions) != 8 {
		t.Fatalf("defaulted K wrong: %d decisions", len(r.Decisions))
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.P50 != 2 || s.N != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty Summarize = %+v", z)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x² must fit slope 2; y = 7 must fit slope 0.
	xs := []float64{2, 4, 8, 16}
	var quad, flat []float64
	for _, x := range xs {
		quad = append(quad, x*x)
		flat = append(flat, 7)
	}
	if got := LogLogSlope(xs, quad); math.Abs(got-2) > 1e-9 {
		t.Fatalf("slope of x² = %v", got)
	}
	if got := LogLogSlope(xs, flat); math.Abs(got) > 1e-9 {
		t.Fatalf("slope of constant = %v", got)
	}
	if got := LogLogSlope([]float64{1}, []float64{1}); got != 0 {
		t.Fatalf("degenerate slope = %v", got)
	}
}

func TestLogStar(t *testing.T) {
	for _, tc := range []struct {
		n    float64
		want int
	}{
		{1, 0}, {2, 1}, {4, 2}, {16, 3}, {256, 4}, {65536, 4}, {1 << 20, 5},
	} {
		if got := LogStar(tc.n); got != tc.want {
			t.Fatalf("LogStar(%v) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestGrowthPerDoubling(t *testing.T) {
	// Doubling sequence y = x gives ratio 2; constant gives 1.
	if got := growthPerDoubling([]float64{2, 4, 8}, []float64{2, 4, 8}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("growth of linear = %v", got)
	}
	if got := growthPerDoubling([]float64{2, 4, 8}, []float64{5, 5, 5}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("growth of constant = %v", got)
	}
}

func TestTableRenderAndMarkdown(t *testing.T) {
	tab := &Table{
		ID:     "TX",
		Title:  "demo",
		Claim:  "claim text",
		Header: []string{"a", "b"},
	}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "note text")

	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"TX — demo", "claim text", "a", "1", "note text"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q in:\n%s", want, out)
		}
	}
	sb.Reset()
	tab.Markdown(&sb)
	md := sb.String()
	for _, want := range []string{"### TX — demo", "| a | b |", "| --- | --- |", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("Markdown missing %q in:\n%s", want, md)
		}
	}
}

func TestT10GeneratorShape(t *testing.T) {
	// One full generator end-to-end at tiny scale: the flip-aware contrast
	// must show naive survivors/n = 1.00 on every row.
	tab := T10NaiveVsPoisonPill(tiny)
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	for _, row := range tab.Rows {
		if row[1] == string(AlgoNaiveSift) && row[3] != "1.00" {
			t.Fatalf("naive sift row %v: survivors/n != 1.00", row)
		}
	}
}

func TestT11GeneratorNoViolations(t *testing.T) {
	tab := T11FaultTolerance(tiny)
	for _, row := range tab.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("fault-tolerance violations in row %v", row)
		}
	}
}

func TestF1GeneratorRatioAboveOneAtScale(t *testing.T) {
	tab := F1HeadlineCurve(Scale{Seeds: 3, MaxN: 64})
	last := tab.Rows[len(tab.Rows)-1]
	// tournament/poisonpill at the largest k must exceed 1: the paper's
	// headline (faster than a tournament).
	ratio, err := strconv.ParseFloat(last[3], 64)
	if err != nil {
		t.Fatalf("parse ratio %q: %v", last[3], err)
	}
	if ratio <= 1.0 {
		t.Fatalf("tournament/poisonpill ratio %.2f at k=%s: not faster than a tournament", ratio, last[0])
	}
}
