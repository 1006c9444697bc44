package explore

import (
	"errors"
	"testing"

	"repro/internal/expt"
	"repro/internal/sim"
)

// simFactory builds algo's n-participant run exactly as the sim runs it,
// judged by the algorithm's contract: Claim 3.1 for the sifts, the unique
// winner for the election.
func simFactory(algo expt.Algorithm, n int, seed int64) Factory {
	return func() *Instance {
		in, err := expt.Build(expt.Config{N: n, Seed: seed, Algorithm: algo})
		if err != nil {
			panic(err)
		}
		return &Instance{Kernel: in.Kernel, Check: in.Judge}
	}
}

func TestExhaustiveTwoProcessorBasicSift(t *testing.T) {
	// Full exploration (no depth cap) of every yield-granular interleaving
	// of a 2-participant basic PoisonPill round, across several coin seeds:
	// Claim 3.1 must hold on every schedule.
	for seed := int64(0); seed < 4; seed++ {
		rep, err := Run(simFactory(expt.AlgoBasicSift, 2, seed), Config{})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if rep.Failed() {
			t.Fatalf("seed=%d: %d violations, first: prefix=%v err=%v",
				seed, len(rep.Violations), rep.Violations[0].Prefix, rep.Violations[0].Err)
		}
		if rep.Truncated {
			t.Fatalf("seed=%d: exploration truncated at %d nodes", seed, rep.Nodes)
		}
		if rep.Leaves == 0 || rep.Nodes <= rep.Leaves {
			t.Fatalf("seed=%d: degenerate exploration: %d nodes, %d leaves", seed, rep.Nodes, rep.Leaves)
		}
	}
}

func TestExhaustiveTwoProcessorHetSift(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rep, err := Run(simFactory(expt.AlgoHetSift, 2, seed), Config{})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if rep.Failed() {
			t.Fatalf("seed=%d: violation on prefix %v: %v",
				seed, rep.Violations[0].Prefix, rep.Violations[0].Err)
		}
	}
}

func TestBoundedThreeProcessorSift(t *testing.T) {
	// Depth-bounded exploration of the 3-participant round: every prefix of
	// 7 choices, each completed fairly.
	rep, err := Run(simFactory(expt.AlgoBasicSift, 3, 1), Config{MaxDepth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("violation on prefix %v: %v", rep.Violations[0].Prefix, rep.Violations[0].Err)
	}
	if rep.DepthCapped == 0 {
		t.Fatal("expected some depth-capped paths at MaxDepth 7")
	}
}

func TestBoundedTwoProcessorElection(t *testing.T) {
	// The full election (doorway + pre-rounds + sifts) for two processors,
	// exhaustive over the first 8 choices: exactly one winner on every
	// explored schedule.
	for seed := int64(0); seed < 2; seed++ {
		rep, err := Run(simFactory(expt.AlgoPoisonPill, 2, seed), Config{MaxDepth: 8})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if rep.Failed() {
			t.Fatalf("seed=%d: violation on prefix %v: %v",
				seed, rep.Violations[0].Prefix, rep.Violations[0].Err)
		}
		if rep.Nodes < 50 {
			t.Fatalf("seed=%d: suspiciously small exploration (%d nodes)", seed, rep.Nodes)
		}
	}
}

func TestMaxNodesTruncates(t *testing.T) {
	rep, err := Run(simFactory(expt.AlgoBasicSift, 3, 2), Config{MaxNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatal("MaxNodes did not truncate")
	}
	if rep.Nodes > 10 {
		t.Fatalf("explored %d nodes past the cap", rep.Nodes)
	}
}

func TestViolationDetection(t *testing.T) {
	// A deliberately broken invariant must be caught and reported with a
	// reproducible prefix.
	factory := func() *Instance {
		k := sim.NewKernel(sim.Config{N: 2, Seed: 1})
		k.Spawn(0, func(p *sim.Proc) { p.Pause() })
		k.Spawn(1, func(p *sim.Proc) {})
		return &Instance{
			Kernel: k,
			Check:  func() error { return errors.New("always fails") },
		}
	}
	rep, err := Run(factory, Config{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("violations not detected")
	}
	if len(rep.Violations) != rep.Nodes {
		t.Fatalf("%d violations over %d nodes, want one per node", len(rep.Violations), rep.Nodes)
	}
}

func TestDeterministicReplayOfPrefix(t *testing.T) {
	// Running the same prefix twice yields identical frontier options: the
	// foundation of the exploration's soundness.
	f := simFactory(expt.AlgoBasicSift, 2, 3)
	rep := &Report{}
	opts1, err := runOne(f, []int{0, 0, 1}, rep)
	if err != nil {
		t.Fatal(err)
	}
	opts2, err := runOne(f, []int{0, 0, 1}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts1) != len(opts2) {
		t.Fatalf("options differ: %v vs %v", opts1, opts2)
	}
	for i := range opts1 {
		if opts1[i] != opts2[i] {
			t.Fatalf("options differ: %v vs %v", opts1, opts2)
		}
	}
}
