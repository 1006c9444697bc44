package renaming

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/quorum"
	"repro/internal/sim"
)

// runRenaming simulates renaming with participants on the first k of n
// processors and returns name per participant, states, stats.
func runRenaming(t *testing.T, n, k int, seed int64, adv sim.Adversary) (map[sim.ProcID]int, map[sim.ProcID]*State, sim.Stats) {
	t.Helper()
	k2 := sim.NewKernel(sim.Config{N: n, Seed: seed, MaxFaults: -1})
	stores := quorum.InstallStores(k2)
	names := make(map[sim.ProcID]int, k)
	states := make(map[sim.ProcID]*State, k)
	for i := 0; i < k; i++ {
		id := sim.ProcID(i)
		k2.Spawn(id, func(p *sim.Proc) {
			c := quorum.NewComm(p, stores[id])
			s := &State{}
			states[id] = s
			names[id] = GetName(c, s)
		})
	}
	stats, err := k2.Run(adv)
	if err != nil {
		t.Fatalf("renaming run (n=%d k=%d seed=%d): %v", n, k, seed, err)
	}
	return names, states, stats
}

// checkNames asserts strong renaming: every participant returned, and the
// names judge accepts their names.
func checkNames(t *testing.T, names map[sim.ProcID]int, n, k int) {
	t.Helper()
	if len(names) != k {
		t.Fatalf("%d of %d participants returned", len(names), k)
	}
	if err := JudgeNames(n, names); err != nil {
		t.Fatal(err)
	}
}

// TestJudgeNames: one case per clause the names judge checks.
func TestJudgeNames(t *testing.T) {
	cases := []struct {
		names map[sim.ProcID]int
		want  string // substring of the error; "" means valid
	}{
		{map[sim.ProcID]int{0: 2, 1: 1, 3: 4}, ""},
		{map[sim.ProcID]int{0: 2, 1: 0}, "participant 1 returned name 0 outside [1, 4]"},
		{map[sim.ProcID]int{0: 5}, "outside [1, 4]"},
		{map[sim.ProcID]int{2: 3, 0: 1, 1: 3}, "participants 1 and 2 both returned name 3"},
	}
	for _, c := range cases {
		err := JudgeNames(4, c.names)
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want %q", c.names, err, c.want)
		}
	}
}

func TestRenamingUniqueNamesFullParticipation(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16, 32} {
		for seed := int64(0); seed < 5; seed++ {
			names, _, _ := runRenaming(t, n, n, seed, nil)
			checkNames(t, names, n, n)
		}
	}
}

func TestRenamingPartialParticipation(t *testing.T) {
	cases := []struct{ n, k int }{{8, 1}, {8, 3}, {16, 5}, {32, 9}, {33, 16}}
	for _, tc := range cases {
		for seed := int64(0); seed < 3; seed++ {
			names, _, _ := runRenaming(t, tc.n, tc.k, seed, nil)
			checkNames(t, names, tc.n, tc.k)
		}
	}
}

func TestRenamingTimePolylog(t *testing.T) {
	// Theorem A.13: O(log² n) communicate calls per processor. Generous
	// deterministic constant; at n = 64, log²₂ n = 36.
	for _, n := range []int{8, 16, 32, 64} {
		worst := 0
		for seed := int64(0); seed < 3; seed++ {
			_, _, stats := runRenaming(t, n, n, seed, nil)
			if mc := stats.MaxCommunicateCalls(); mc > worst {
				worst = mc
			}
		}
		lg := math.Log2(float64(n))
		bound := int(12*lg*lg) + 40
		if worst > bound {
			t.Fatalf("n=%d: max communicate calls %d exceed O(log²n) bound %d", n, worst, bound)
		}
	}
}

func TestRenamingMessagesQuadratic(t *testing.T) {
	// Theorem 4.2: O(n²) messages. The ratio messages/n² must stay below a
	// fixed constant as n grows.
	for _, n := range []int{16, 32, 64} {
		var worst float64
		for seed := int64(0); seed < 3; seed++ {
			_, _, stats := runRenaming(t, n, n, seed, nil)
			ratio := float64(stats.MessagesSent) / float64(n*n)
			if ratio > worst {
				worst = ratio
			}
		}
		if worst > 60 {
			t.Fatalf("n=%d: messages/n² = %.1f blows the O(n²) bound", n, worst)
		}
	}
}

func TestRenamingIterationsRecorded(t *testing.T) {
	_, states, _ := runRenaming(t, 16, 16, 4, nil)
	for id, s := range states {
		if s.Iterations < 1 {
			t.Fatalf("processor %d recorded %d iterations", id, s.Iterations)
		}
		if s.Acquired < 1 || s.Acquired > 16 {
			t.Fatalf("processor %d state acquired = %d", id, s.Acquired)
		}
		if s.Contending != 0 {
			t.Fatalf("processor %d still marked contending after return", id)
		}
	}
}

func TestRenamingDeterministicForSeed(t *testing.T) {
	a, _, sa := runRenaming(t, 12, 12, 9, nil)
	b, _, sb := runRenaming(t, 12, 12, 9, nil)
	for id, u := range a {
		if b[id] != u {
			t.Fatalf("name of %d differs across identical runs", id)
		}
	}
	if sa.MessagesSent != sb.MessagesSent {
		t.Fatal("message counts differ across identical runs")
	}
}

func TestNameSetBasics(t *testing.T) {
	s := NewNameSet(130)
	if s.Has(1) || s.Has(130) {
		t.Fatal("fresh set non-empty")
	}
	s2 := s.With(1).With(64).With(65).With(130)
	for _, u := range []int{1, 64, 65, 130} {
		if !s2.Has(u) {
			t.Fatalf("name %d missing", u)
		}
	}
	if s.Has(1) {
		t.Fatal("With mutated the receiver")
	}
	if s2.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s2.Count())
	}
	if s2.Has(2) || s2.Has(131) || s2.Has(500) {
		t.Fatal("phantom membership")
	}
}

func TestNameSetUnion(t *testing.T) {
	a := NewNameSet(64).With(3)
	b := NewNameSet(64).With(7)
	u := a.Union(b)
	if !u.Has(3) || !u.Has(7) {
		t.Fatal("union missing members")
	}
	if a.Has(7) {
		t.Fatal("union mutated the receiver")
	}
	// No-op unions return the receiver unchanged (no copy).
	same := u.Union(a)
	if &same[0] != &u[0] {
		t.Fatal("no-op union should return the receiver")
	}
}

func TestNameSetQuickProperties(t *testing.T) {
	// Property: for any pair of small sets, Union is commutative in
	// membership and Count, and With(u) adds exactly u.
	f := func(xs, ys []uint8, u uint8) bool {
		const n = 256
		a := NewNameSet(n)
		for _, x := range xs {
			a = a.With(int(x)%n + 1)
		}
		b := NewNameSet(n)
		for _, y := range ys {
			b = b.With(int(y)%n + 1)
		}
		ab, ba := a.Union(b), b.Union(a)
		for v := 1; v <= n; v++ {
			if ab.Has(v) != ba.Has(v) {
				return false
			}
			if ab.Has(v) != (a.Has(v) || b.Has(v)) {
				return false
			}
		}
		name := int(u)%n + 1
		w := a.With(name)
		if !w.Has(name) {
			return false
		}
		extra := 1
		if a.Has(name) {
			extra = 0
		}
		return w.Count() == a.Count()+extra
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNameSetWireSize(t *testing.T) {
	// Exact internal/wire codec body sizes: word-count uvarint + 8 bytes
	// per bitset word.
	if (NewNameSet(64)).WireSize() != 1+8 {
		t.Fatalf("WireSize(64 names) = %d, want 9", NewNameSet(64).WireSize())
	}
	if (NewNameSet(65)).WireSize() != 1+16 {
		t.Fatalf("WireSize(65 names) = %d, want 17", NewNameSet(65).WireSize())
	}
}

func TestPickUncontendedDistribution(t *testing.T) {
	// pickUncontended must return only free names and cover all of them.
	k2 := sim.NewKernel(sim.Config{N: 1, Seed: 5})
	counts := make(map[int]int)
	k2.Spawn(0, func(p *sim.Proc) {
		contended := NewNameSet(8).With(2).With(5)
		for i := 0; i < 400; i++ {
			u := pickUncontended(p, 8, contended)
			if u == 2 || u == 5 || u < 1 || u > 8 {
				t.Errorf("picked contended or out-of-range name %d", u)
				return
			}
			counts[u]++
		}
	})
	if _, err := k2.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(counts) != 6 {
		t.Fatalf("random picks covered %d of 6 free names", len(counts))
	}
}

func TestPickUncontendedAllTaken(t *testing.T) {
	k2 := sim.NewKernel(sim.Config{N: 1, Seed: 5})
	k2.Spawn(0, func(p *sim.Proc) {
		full := NewNameSet(4).With(1).With(2).With(3).With(4)
		if u := pickUncontended(p, 4, full); u != 0 {
			t.Errorf("pick from full set = %d, want 0", u)
		}
	})
	if _, err := k2.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
