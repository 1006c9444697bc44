package core

import (
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/quorum"
	"repro/internal/sim"
)

func TestClaim34SequentialOrderDeterminesEll(t *testing.T) {
	// Claim 3.4: a processor that completes its Commit propagation no later
	// than p appears in p's ℓ list. Under the strictly sequential schedule
	// processor i runs after processors 0..i−1 finished, so it must compute
	// |ℓ| = i+1 exactly — a sharp, deterministic check of the claim.
	const n = 24
	k2 := sim.NewKernel(sim.Config{N: n, Seed: 4})
	stores := quorum.InstallStores(k2)
	states := make(map[sim.ProcID]*State, n)
	for i := 0; i < n; i++ {
		id := sim.ProcID(i)
		k2.Spawn(id, func(p *sim.Proc) {
			c := quorum.NewComm(p, stores[id])
			s := NewState(p, "het")
			states[id] = s
			HetPoisonPill(c, "pp", s)
		})
	}
	if _, err := k2.Run(adversary.NewSequential(nil)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := states[sim.ProcID(i)].Ell; got != i+1 {
			t.Fatalf("sequential processor %d computed |ℓ| = %d, want %d (Claim 3.4)", i, got, i+1)
		}
	}
}

func TestClaim33ClosureOfSurvivorLists(t *testing.T) {
	// Claim 3.3 (closure): let U be the union of the ℓ lists propagated by
	// low-priority survivors. Every processor named in the ℓ list of a
	// member of U must itself have flipped 0. We verify the observable
	// consequence on real executions: every low-priority survivor's ℓ list
	// contains only processors that flipped 0 — a high-priority member
	// would have forced the survivor to die.
	for seed := int64(0); seed < 10; seed++ {
		const n = 32
		k2 := sim.NewKernel(sim.Config{N: n, Seed: seed})
		stores := quorum.InstallStores(k2)
		states := make(map[sim.ProcID]*State, n)
		outcomes := make(map[sim.ProcID]Outcome, n)
		lists := make(map[sim.ProcID][]sim.ProcID, n)
		for i := 0; i < n; i++ {
			id := sim.ProcID(i)
			k2.Spawn(id, func(p *sim.Proc) {
				c := quorum.NewComm(p, stores[id])
				s := NewState(p, "het")
				states[id] = s
				outcomes[id] = HetPoisonPill(c, "pp", s)
				for _, e := range stores[id].Snapshot("pp/status") {
					if st, ok := e.Val.(Status); ok && e.Owner == id {
						lists[id] = st.List
					}
				}
			})
		}
		if _, err := k2.Run(nil); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		for id, o := range outcomes {
			if o != Survive || states[id].Flip != 0 {
				continue
			}
			for _, q := range lists[id] {
				if states[q] != nil && states[q].Flip == 1 {
					t.Fatalf("seed=%d: low-priority survivor %d has 1-flipper %d in its ℓ list",
						seed, id, q)
				}
			}
		}
	}
}

func TestElectionPropertyRandomConfigs(t *testing.T) {
	// Property-based sweep: for arbitrary (n, k, seed) the election always
	// has exactly one winner and everyone returns.
	f := func(nRaw, kRaw uint8, seed int64) bool {
		n := int(nRaw)%24 + 1
		k := int(kRaw)%n + 1
		r := runElection(n, k, seed, nil)
		_, err := JudgeElection(k, r.decisions)
		return r.err == nil && len(r.decisions) == k && err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSiftPropertyAlwaysOneSurvivor(t *testing.T) {
	// Property-based Claim 3.1 over both sift variants and random sizes.
	f := func(nRaw uint8, seed int64, het bool) bool {
		n := int(nRaw)%20 + 1
		_, err := runSift(n, n, seed, het)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusWireSize(t *testing.T) {
	// Exact internal/wire codec body sizes: stat byte + list-length uvarint
	// + one uvarint per listed id. The codec's property tests pin that
	// these match the encoder byte for byte.
	if got := (Status{Stat: Commit}).WireSize(); got != 2 {
		t.Fatalf("commit status = %d bytes, want 2 (stat byte + empty-list uvarint)", got)
	}
	s := Status{Stat: LowPri, List: []sim.ProcID{1, 2, 3}}
	if s.WireSize() != 1+1+3 {
		t.Fatalf("status with 3-entry list = %d bytes, want 5", s.WireSize())
	}
	wide := Status{Stat: HighPri, List: []sim.ProcID{200}} // 200 needs a 2-byte uvarint
	if wide.WireSize() != 1+1+2 {
		t.Fatalf("status listing processor 200 = %d bytes, want 4", wide.WireSize())
	}
}

func TestEnumStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Survive.String(), "SURVIVE"},
		{Die.String(), "DIE"},
		{Outcome(0).String(), "undecided"},
		{Win.String(), "WIN"},
		{Lose.String(), "LOSE"},
		{Proceed.String(), "PROCEED"},
		{Decision(0).String(), "undecided"},
		{Commit.String(), "Commit"},
		{LowPri.String(), "Low-Pri"},
		{HighPri.String(), "High-Pri"},
		{StatKind(0).String(), "⊥"},
		{StageDoorway.String(), "doorway"},
		{StageDone.String(), "done"},
		{Stage(0).String(), "unknown"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Fatalf("String() = %q, want %q", tc.got, tc.want)
		}
	}
}

func TestStateProgressMonotone(t *testing.T) {
	s := &State{}
	last := s.Progress
	for _, st := range []Stage{StageDoorway, StagePreRound, StageCommit, StageDone} {
		s.setStage(st)
		if s.Progress <= last {
			t.Fatal("Progress not strictly increasing")
		}
		last = s.Progress
	}
}
