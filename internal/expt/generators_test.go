package expt

import (
	"strconv"
	"strings"
	"testing"
)

// Every experiment generator is smoke-tested at tiny scale: the tables must
// be well-formed (consistent column counts, parseable numerics) and their
// headline invariants must hold even at small sizes. These tests are the
// regression net for the reproduction itself.

// checkTable asserts structural well-formedness.
func checkTable(t *testing.T, tab *Table) {
	t.Helper()
	if tab.ID == "" || tab.Title == "" || tab.Claim == "" {
		t.Fatalf("table metadata incomplete: %+v", tab)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("table has no rows")
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tab.Header))
		}
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", row[col], err)
	}
	return v
}

func TestT1Generator(t *testing.T) {
	tab := T1PoisonPillSurvivors(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		if s := cell(t, row, 2); s < 1 {
			t.Fatalf("row %v: mean survivors below 1 (Claim 3.1)", row)
		}
		if minS := cell(t, row, 3); minS < 1 {
			t.Fatalf("row %v: some run had zero survivors (Claim 3.1)", row)
		}
	}
}

func TestT2Generator(t *testing.T) {
	tab := T2HetSurvivors(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		if s := cell(t, row, 2); s < 1 {
			t.Fatalf("row %v: mean survivors below 1", row)
		}
	}
}

func TestT3Generator(t *testing.T) {
	tab := T3ElectionTime(tiny)
	checkTable(t, tab)
	// At the largest k under lockstep, the tournament must be slower.
	var pp, tn float64
	for _, row := range tab.Rows {
		if row[0] == "32" && row[2] == "lockstep" {
			if row[1] == string(AlgoPoisonPill) {
				pp = cell(t, row, 3)
			}
			if row[1] == string(AlgoTournament) {
				tn = cell(t, row, 3)
			}
		}
	}
	if pp == 0 || tn == 0 {
		t.Fatal("missing k=32 lockstep rows")
	}
	if tn <= pp {
		t.Fatalf("tournament (%.1f) not slower than poisonpill (%.1f) at k=32", tn, pp)
	}
}

func TestT4Generator(t *testing.T) {
	tab := T4ElectionMessages(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		if ratio := cell(t, row, 4); ratio > 100 {
			t.Fatalf("row %v: messages/(kn) = %.1f blows the O(kn) bound", row, ratio)
		}
	}
}

func TestT5Generator(t *testing.T) {
	tab := T5Adaptivity(tiny)
	checkTable(t, tab)
	// Time for k=1 must be the minimum of the column (adaptivity).
	first := cell(t, tab.Rows[0], 2)
	for _, row := range tab.Rows[1:] {
		if cell(t, row, 2) < first {
			t.Fatalf("k=1 time %.1f is not minimal", first)
		}
	}
}

func TestT6Generator(t *testing.T) {
	tab := T6RenamingMessages(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		if ratio := cell(t, row, 3); ratio > 120 {
			t.Fatalf("row %v: messages/n² = %.1f blows O(n²)", row, ratio)
		}
	}
}

func TestT7Generator(t *testing.T) {
	tab := T7RenamingTime(tiny)
	checkTable(t, tab)
}

func TestT8Generator(t *testing.T) {
	tab := T8LowerBound(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		msgs := cell(t, row, 2)
		n, _ := strconv.Atoi(row[0])
		if msgs < float64(n*n)/16 {
			t.Fatalf("row %v: %v messages below the kn/16 floor", row, msgs)
		}
	}
}

func TestT9Generator(t *testing.T) {
	tab := T9RoundDecay(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		if worst := cell(t, row, 2); worst > 12 {
			t.Fatalf("row %v: max round %.0f far beyond log*", row, worst)
		}
	}
}

func TestT11Generator(t *testing.T) {
	tab := T11FaultTolerance(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		if v := cell(t, row, 4); v != 0 {
			t.Fatalf("row %v: safety violations under crashes", row)
		}
	}
}

func TestT12Generator(t *testing.T) {
	tab := T12TimeMetric(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		ratio := cell(t, row, 4)
		if ratio < 1 || ratio > 10 {
			t.Fatalf("row %v: makespan/calls = %.2f outside the Claim 2.1 band", row, ratio)
		}
	}
}

func TestT13Generator(t *testing.T) {
	tab := T13RoundDecaySeries(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		// The series must be non-increasing: participants only drop out.
		parts := strings.Split(row[2], " → ")
		prev := 1e18
		for _, p := range parts {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				t.Fatalf("bad series cell %q", p)
			}
			if v > prev {
				t.Fatalf("row %v: participants increased across rounds", row)
			}
			prev = v
		}
		// Under concurrent schedules everyone passes the doorway and enters
		// round 1; under seqrounds the doorway eliminates every late
		// starter, so only the first participant has a round at all.
		first, _ := strconv.ParseFloat(parts[0], 64)
		switch row[1] {
		case string(SchedSeqRounds):
			if first != 1 {
				t.Fatalf("row %v: sequential starts should leave exactly 1 doorway survivor", row)
			}
		default:
			if first != 32 {
				t.Fatalf("row %v: round 1 should have all 32 participants", row)
			}
		}
	}
}

func TestA1Generator(t *testing.T) {
	tab := A1BiasAblation(tiny)
	checkTable(t, tab)
	// The paper's bias must not be beaten by a large margin by any
	// alternative (it is the minimizer up to constants and noise).
	var paper float64
	low := 1e18
	for _, row := range tab.Rows {
		v := cell(t, row, 2)
		if strings.Contains(row[1], "paper") {
			paper = v
		}
		if v < low {
			low = v
		}
	}
	if paper > 3*low+5 {
		t.Fatalf("paper bias survivors %.1f far above best alternative %.1f", paper, low)
	}
}

func TestA2Generator(t *testing.T) {
	tab := A2HetBiasAblation(tiny)
	checkTable(t, tab)
	// The fair-coin ablation must keep ≈half the field alive — much more
	// than the paper's bias — under lockstep.
	var paper, fair float64
	for _, row := range tab.Rows {
		if row[2] != "lockstep" {
			continue
		}
		switch {
		case strings.Contains(row[1], "paper"):
			paper = cell(t, row, 3)
		case row[1] == "1/2":
			fair = cell(t, row, 3)
		}
	}
	if fair <= paper {
		t.Fatalf("fair bias (%.1f survivors) should keep more alive than the paper bias (%.1f)", fair, paper)
	}
}

func TestF2Generator(t *testing.T) {
	tab := F2SurvivorHistogram(tiny)
	checkTable(t, tab)
}

func TestF3Generator(t *testing.T) {
	tab := F3RenamingDistributions(tiny)
	checkTable(t, tab)
	for _, row := range tab.Rows {
		if mx := cell(t, row, 5); mx < 1 {
			t.Fatalf("row %v: no name had any contender", row)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
		"T11", "T12", "T13", "A1", "A2", "F1", "F2", "F3"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, exp := range reg {
		if exp.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, exp.ID, want[i])
		}
		if exp.Gen == nil {
			t.Fatalf("registry[%d] has nil generator", i)
		}
	}
}

func TestRunCustomSiftRespectsBias(t *testing.T) {
	// prob = 1: everyone flips high priority and survives; prob = 0 with a
	// sequential schedule: everyone flips 0 and the early prefix survives.
	r := runCustomSift(8, 1, 1.0)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Survivors() != 8 {
		t.Fatalf("prob=1: %d survivors, want all 8", r.Survivors())
	}
	for _, f := range r.Flips {
		if f != 1 {
			t.Fatal("prob=1 produced a zero flip")
		}
	}
	r = runCustomSift(8, 1, 0.0)
	if r.Err != nil { // Claim 3.1 holds at any bias: Run's judge checks it
		t.Fatal(r.Err)
	}
	for _, f := range r.Flips {
		if f != 0 {
			t.Fatal("prob=0 produced a one flip")
		}
	}
}
