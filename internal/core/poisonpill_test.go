package core

import (
	"math"
	"testing"
)

func TestPoisonPillAtLeastOneSurvivor(t *testing.T) {
	// Claim 3.1: if all participants return, at least one survives.
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33} {
		for seed := int64(0); seed < 10; seed++ {
			if _, err := runSift(n, n, seed, false); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestPoisonPillHighPriorityAlwaysSurvives(t *testing.T) {
	// "processors with high priority always survive" (proof of Claim 3.1).
	for seed := int64(0); seed < 20; seed++ {
		const n = 16
		k2, outcomes, states := instrumentedSift(t, n, seed, false)
		_ = k2
		for id, o := range outcomes {
			if states[id].Flip == 1 && o != Survive {
				t.Fatalf("seed=%d: high-priority processor %d died", seed, id)
			}
		}
	}
}

func TestPoisonPillExpectedSurvivorsSqrtN(t *testing.T) {
	// Claim 3.2: E[survivors] = O(√n). Fair schedule, fixed seeds, generous
	// constant so the test is deterministic and robust.
	const n = 256
	const trials = 30
	total := 0
	for seed := int64(0); seed < trials; seed++ {
		survivors, err := runSift(n, n, seed, false)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		total += survivors
	}
	mean := float64(total) / trials
	bound := 4*math.Sqrt(n) + 8
	if mean > bound {
		t.Fatalf("mean survivors %.1f exceeds O(√n) bound %.1f", mean, bound)
	}
	if mean < 1 {
		t.Fatalf("mean survivors %.2f below 1", mean)
	}
}

func TestHetPoisonPillAtLeastOneSurvivor(t *testing.T) {
	// The Claim 3.1 argument carries over to the heterogeneous variant.
	for _, n := range []int{1, 2, 3, 4, 7, 16, 32} {
		for seed := int64(0); seed < 10; seed++ {
			if _, err := runSift(n, n, seed, true); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestHetPoisonPillPolylogSurvivors(t *testing.T) {
	// Lemmas 3.6 + 3.7: E[survivors] = O(log² k). At k = 256 the bound with
	// a small constant is far below √k = 16, distinguishing it from the
	// basic technique.
	const n = 256
	const trials = 30
	total := 0
	for seed := int64(0); seed < trials; seed++ {
		survivors, err := runSift(n, n, seed, true)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		total += survivors
	}
	mean := float64(total) / trials
	lg := math.Log2(n)
	bound := 2*lg*lg + 8
	if mean > bound {
		t.Fatalf("mean survivors %.1f exceeds O(log²k) bound %.1f", mean, bound)
	}
}

func TestHetPoisonPillSoloParticipantAlwaysSurvives(t *testing.T) {
	// |ℓ| = 1 forces probability 1 (line 18): a lone participant flips high
	// priority and survives deterministically.
	for seed := int64(0); seed < 5; seed++ {
		survivors, err := runSift(8, 1, seed, true)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if survivors != 1 {
			t.Fatalf("seed=%d: solo participant died", seed)
		}
	}
}

func TestHetPoisonPillEllGrowsWithOrder(t *testing.T) {
	// Claim 3.4: a processor completing the commit propagation later sees at
	// least as many participants. Under the fair (round-robin-ish)
	// scheduler every participant must see at least itself.
	const n = 16
	_, _, states := instrumentedSift(t, n, 3, true)
	for id, st := range states {
		if st.Ell < 1 {
			t.Fatalf("processor %d computed |ℓ| = %d < 1", id, st.Ell)
		}
		if st.Ell > n {
			t.Fatalf("processor %d computed |ℓ| = %d > n", id, st.Ell)
		}
	}
}

func TestSiftStatePublished(t *testing.T) {
	_, outcomes, states := instrumentedSift(t, 8, 1, true)
	for id, st := range states {
		if st.Sifts != 1 {
			t.Fatalf("processor %d recorded %d sifts, want 1", id, st.Sifts)
		}
		if st.Flip != 0 && st.Flip != 1 {
			t.Fatalf("processor %d flip = %d", id, st.Flip)
		}
		if st.LastOutcome != outcomes[id] {
			t.Fatalf("processor %d state outcome %v != returned %v", id, st.LastOutcome, outcomes[id])
		}
	}
}

func TestExistsStrongWithoutLowLogic(t *testing.T) {
	mk := func(owner int, stat StatKind) viewEntry { return viewEntry{owner: owner, stat: stat} }
	cases := []struct {
		name    string
		entries []viewEntry
		want    bool
	}{
		{"empty", nil, false},
		{"only low", []viewEntry{mk(1, LowPri)}, false},
		{"commit alone kills", []viewEntry{mk(1, Commit)}, true},
		{"high alone kills", []viewEntry{mk(1, HighPri)}, true},
		{"commit masked by low", []viewEntry{mk(1, Commit), mk(1, LowPri)}, false},
		{"high masked by low", []viewEntry{mk(1, HighPri), mk(1, LowPri)}, false},
		{"mixed: one masked one not", []viewEntry{mk(1, Commit), mk(1, LowPri), mk(2, HighPri)}, true},
		{"owners outside [0, n) name no processor", []viewEntry{mk(4, Commit), mk(-1, HighPri), mk(1<<20, Commit)}, false},
	}
	var sc siftScratch // one scratch for every case: each decision starts cleared
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			views := buildViews(4, tc.entries)
			if got := sc.existsStrongWithoutLow(4, views); got != tc.want {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSomeInLWithoutLowUsesLists(t *testing.T) {
	// A processor that appears only inside another's ℓ list — never with
	// its own status — must still force death (Fig 2 line 26: L unions the
	// observed lists).
	var sc siftScratch
	views := buildViews(4, []viewEntry{{owner: 1, stat: LowPri, list: []int{1, 2}}})
	if !sc.someInLWithoutLow(4, views) {
		t.Fatal("processor 2 is in L via a list and has no low priority: must die")
	}
	// If 2's low priority is also visible, survival is allowed.
	views = buildViews(4, []viewEntry{
		{owner: 1, stat: LowPri, list: []int{1, 2}},
		{owner: 2, stat: LowPri, list: []int{2}},
	})
	if sc.someInLWithoutLow(4, views) {
		t.Fatal("all of L has visible low priority: must survive")
	}
	// Ids outside [0, n), as an owner or in a list, name no processor: they
	// neither join L nor index past the tables.
	views = buildViews(4, []viewEntry{
		{owner: 1, stat: LowPri, list: []int{1, 4, -1, 1 << 20}},
		{owner: 7, stat: HighPri, list: []int{7}},
	})
	if sc.someInLWithoutLow(4, views) {
		t.Fatal("only out-of-range ids lack low priority: must survive")
	}
}

func TestParticipantsSeenSortedUnique(t *testing.T) {
	views := buildViews(8, []viewEntry{
		{owner: 5, stat: Commit},
		{owner: 2, stat: Commit},
		{owner: 5, stat: LowPri},
		{owner: 8, stat: Commit},
		{owner: -3, stat: Commit},
	})
	var sc siftScratch
	got := sc.participantsSeen(8, views)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("participantsSeen = %v, want [2 5]", got)
	}
}
