package adversary

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/renaming"
	"repro/internal/sim"
)

// siftAlgo selects which single-round sifter a test run uses.
type siftAlgo int

const (
	algoPoisonPill siftAlgo = iota + 1
	algoNaive
)

// runSift runs one sifting round over all n processors under the given
// adversary and returns survivor count and per-processor outcomes. A
// PoisonPill round must pass its judge; the naive strawman has no contract.
func runSift(t *testing.T, algo siftAlgo, n int, seed int64, adv sim.Adversary) (int, map[sim.ProcID]core.Outcome) {
	t.Helper()
	k2 := sim.NewKernel(sim.Config{N: n, Seed: seed})
	stores := quorum.InstallStores(k2)
	outcomes := make(map[sim.ProcID]core.Outcome, n)
	prob := 1 / math.Sqrt(float64(n))
	for i := 0; i < n; i++ {
		id := sim.ProcID(i)
		k2.Spawn(id, func(p *sim.Proc) {
			c := quorum.NewComm(p, stores[id])
			s := core.NewState(p, "sift")
			switch algo {
			case algoPoisonPill:
				outcomes[id] = core.PoisonPill(c, "pp", s)
			case algoNaive:
				outcomes[id] = baseline.NaiveSift(c, "nv", prob, s)
			}
		})
	}
	if _, err := k2.Run(adv); err != nil {
		t.Fatalf("sift run (n=%d seed=%d): %v", n, seed, err)
	}
	alive, err := core.JudgeSift(n, outcomes)
	if err != nil && algo == algoPoisonPill {
		t.Fatalf("sift run (n=%d seed=%d): %v", n, seed, err)
	}
	return alive, outcomes
}

func TestSequentialForcesSqrtNSurvivorsInPoisonPill(t *testing.T) {
	// Section 3.2's lower-bound schedule: run participants one at a time.
	// Expected survivors = (0-flippers before the first 1-flipper) + (all
	// 1-flippers) ≈ 2√n. Check the mean is Ω(√n) — well above the polylog
	// a heterogeneous round achieves — and that at least one survives.
	const n = 256
	const trials = 15
	total := 0
	for seed := int64(0); seed < trials; seed++ {
		alive, _ := runSift(t, algoPoisonPill, n, seed, NewSequential(nil))
		total += alive
	}
	mean := float64(total) / trials
	if mean < math.Sqrt(n)/2 {
		t.Fatalf("sequential schedule achieved only %.1f mean survivors, want Ω(√n) ≈ %.0f",
			mean, math.Sqrt(n))
	}
	if mean > 6*math.Sqrt(n) {
		t.Fatalf("mean survivors %.1f exceed the O(√n) upper bound", mean)
	}
}

func TestFlipAwareBreaksNaiveSifting(t *testing.T) {
	// The Section 1 attack: with flips visible before any communication,
	// the adversary completes all 0-flippers first and *nobody* dies —
	// naive sifting makes no progress at all.
	const n = 64
	for seed := int64(0); seed < 10; seed++ {
		alive, _ := runSift(t, algoNaive, n, seed, NewFlipAware())
		if alive != n {
			t.Fatalf("seed=%d: flip-aware adversary let %d/%d survive; the attack should keep everyone alive",
				seed, alive, n)
		}
	}
}

func TestFlipAwareDefeatedByPoisonPill(t *testing.T) {
	// The same attack against PoisonPill fails: the commit state forces the
	// adversary to let everyone announce Commit before seeing any flip, so
	// completing 0-flippers observe committed processors and die. Survivors
	// collapse to roughly the 1-flippers, O(√n) on average.
	const n = 64
	const trials = 10
	total := 0
	for seed := int64(0); seed < trials; seed++ {
		alive, outcomes := runSift(t, algoPoisonPill, n, seed, NewFlipAware())
		if alive == len(outcomes) {
			t.Fatalf("seed=%d: everyone survived PoisonPill under flip-aware attack", seed)
		}
		total += alive
	}
	mean := float64(total) / trials
	if mean > 4*math.Sqrt(n)+8 {
		t.Fatalf("mean survivors %.1f exceed O(√n) under flip-aware attack", mean)
	}
}

func TestFairAndLockStepTerminateElections(t *testing.T) {
	for _, adv := range []sim.Adversary{NewFair(11), LockStep{}} {
		k2 := sim.NewKernel(sim.Config{N: 16, Seed: 3})
		stores := quorum.InstallStores(k2)
		decisions := make(map[sim.ProcID]core.Decision, 16)
		for i := 0; i < 16; i++ {
			id := sim.ProcID(i)
			k2.Spawn(id, func(p *sim.Proc) {
				c := quorum.NewComm(p, stores[id])
				decisions[id] = core.LeaderElectWithState(c, "e", core.NewState(p, "leaderelect"))
			})
		}
		if _, err := k2.Run(adv); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if _, err := core.JudgeElection(16, decisions); err != nil {
			t.Fatalf("under %T: %v", adv, err)
		}
	}
}

func TestSequentialRoundsElectionSafety(t *testing.T) {
	// The per-round sequential schedule must not break the election: unique
	// winner, everyone returns.
	for seed := int64(0); seed < 5; seed++ {
		k2 := sim.NewKernel(sim.Config{N: 24, Seed: seed})
		stores := quorum.InstallStores(k2)
		decisions := make(map[sim.ProcID]core.Decision, 24)
		for i := 0; i < 24; i++ {
			id := sim.ProcID(i)
			k2.Spawn(id, func(p *sim.Proc) {
				c := quorum.NewComm(p, stores[id])
				decisions[id] = core.LeaderElectWithState(c, "e", core.NewState(p, "leaderelect"))
			})
		}
		if _, err := k2.Run(NewSequentialRounds()); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if _, err := core.JudgeElection(24, decisions); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestCrashTargetedElectionSafety(t *testing.T) {
	// Crash up to the model maximum while targeting the front-runner: every
	// surviving participant must still return, with at most one winner.
	const n = 16
	for _, faults := range []int{1, 3, 7} { // ⌈16/2⌉−1 = 7
		for seed := int64(0); seed < 5; seed++ {
			k2 := sim.NewKernel(sim.Config{N: n, Seed: seed, MaxFaults: -1})
			stores := quorum.InstallStores(k2)
			decisions := make(map[sim.ProcID]core.Decision, n)
			for i := 0; i < n; i++ {
				id := sim.ProcID(i)
				k2.Spawn(id, func(p *sim.Proc) {
					c := quorum.NewComm(p, stores[id])
					decisions[id] = core.LeaderElectWithState(c, "e", core.NewState(p, "leaderelect"))
				})
			}
			adv := NewCrashTargeted(faults, 200, true, seed)
			if _, err := k2.Run(adv); err != nil {
				t.Fatalf("faults=%d seed=%d: %v", faults, seed, err)
			}
			if _, err := core.JudgeElection(n, decisions); err != nil {
				t.Fatalf("faults=%d seed=%d: %v", faults, seed, err)
			}
			if len(decisions)+adv.Crashed() < n {
				t.Fatalf("faults=%d seed=%d: %d decided + %d crashed < %d participants",
					faults, seed, len(decisions), adv.Crashed(), n)
			}
		}
	}
}

func TestCrashTargetedRenamingSafety(t *testing.T) {
	const n = 16
	for seed := int64(0); seed < 3; seed++ {
		k2 := sim.NewKernel(sim.Config{N: n, Seed: seed, MaxFaults: -1})
		stores := quorum.InstallStores(k2)
		names := make(map[sim.ProcID]int, n)
		for i := 0; i < n; i++ {
			id := sim.ProcID(i)
			k2.Spawn(id, func(p *sim.Proc) {
				c := quorum.NewComm(p, stores[id])
				names[id] = renaming.GetName(c, &renaming.State{})
			})
		}
		adv := NewCrashTargeted(5, 300, false, seed)
		if _, err := k2.Run(adv); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := renaming.JudgeNames(n, names); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestBubbleForcesQuadraticMessages(t *testing.T) {
	// Theorem B.2's construction: bubbled participants must accumulate
	// ≥ n/4 buffered messages before being freed, so the run carries
	// Ω(kn) messages in total and the election still completes correctly.
	const n = 64
	k2 := sim.NewKernel(sim.Config{N: n, Seed: 7})
	stores := quorum.InstallStores(k2)
	decisions := make(map[sim.ProcID]core.Decision, n)
	for i := 0; i < n; i++ {
		id := sim.ProcID(i)
		k2.Spawn(id, func(p *sim.Proc) {
			c := quorum.NewComm(p, stores[id])
			decisions[id] = core.LeaderElectWithState(c, "e", core.NewState(p, "leaderelect"))
		})
	}
	b := NewBubble()
	stats, err := k2.Run(b)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := core.JudgeElection(n, decisions); err != nil {
		t.Fatalf("under bubble: %v", err)
	}
	if len(b.members) != n/4 {
		t.Fatalf("bubble held %d members, want %d", len(b.members), n/4)
	}
	// Every member must have been freed by the threshold (not the fallback)
	// in a healthy run, and each carried ≥ n/4 messages.
	perMember := int64(0)
	for _, cnt := range b.FreedCounts {
		perMember += int64(cnt)
	}
	if perMember < int64(len(b.members)*b.threshold/2) {
		t.Fatalf("buffered message mass %d too small for %d members at threshold %d",
			perMember, len(b.members), b.threshold)
	}
	if stats.MessagesSent < int64(n*n/16) {
		t.Fatalf("total messages %d below the Ω(kn) shape", stats.MessagesSent)
	}
}

func TestStaleViewsRenamingSafety(t *testing.T) {
	// The stale-view schedule skews contention views; renaming must still
	// assign unique names and terminate.
	const n = 16
	for seed := int64(0); seed < 3; seed++ {
		k2 := sim.NewKernel(sim.Config{N: n, Seed: seed})
		stores := quorum.InstallStores(k2)
		names := make(map[sim.ProcID]int, n)
		for i := 0; i < n; i++ {
			id := sim.ProcID(i)
			k2.Spawn(id, func(p *sim.Proc) {
				c := quorum.NewComm(p, stores[id])
				names[id] = renaming.GetName(c, &renaming.State{})
			})
		}
		if _, err := k2.Run(NewStaleViews()); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := renaming.JudgeNames(n, names); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestSequentialElectionLetsFirstWin(t *testing.T) {
	// Fully sequential execution of a whole election: participant 0 runs
	// solo to completion and must win; everyone after must lose.
	const n = 12
	k2 := sim.NewKernel(sim.Config{N: n, Seed: 5})
	stores := quorum.InstallStores(k2)
	decisions := make(map[sim.ProcID]core.Decision, n)
	for i := 0; i < n; i++ {
		id := sim.ProcID(i)
		k2.Spawn(id, func(p *sim.Proc) {
			c := quorum.NewComm(p, stores[id])
			decisions[id] = core.LeaderElectWithState(c, "e", core.NewState(p, "leaderelect"))
		})
	}
	if _, err := k2.Run(NewSequential(nil)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if decisions[0] != core.Win {
		t.Fatalf("first sequential participant returned %v, want WIN", decisions[0])
	}
	for i := 1; i < n; i++ {
		if decisions[sim.ProcID(i)] != core.Lose {
			t.Fatalf("participant %d returned %v, want LOSE", i, decisions[sim.ProcID(i)])
		}
	}
}

func TestDriverAdvancesIsolatedProcessor(t *testing.T) {
	// The driver must be able to carry a single participant through a full
	// communicate round-trip without touching other participants' algorithms.
	const n = 8
	k2 := sim.NewKernel(sim.Config{N: n, Seed: 2})
	stores := quorum.InstallStores(k2)
	done := false
	k2.Spawn(0, func(p *sim.Proc) {
		c := quorum.NewComm(p, stores[0])
		c.Propagate("r", 1)
		c.Collect("r")
		done = true
	})
	k2.Spawn(5, func(p *sim.Proc) {
		p.Pause() // must never be started by the driver
	})
	var d Driver
	adv := sim.AdversaryFunc(func(k *sim.Kernel) sim.Action {
		if !k.Done(0) {
			if a := d.Progress(k, 0); a != nil {
				return a
			}
		}
		return nil
	})
	if _, err := k2.Run(adv); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("driver failed to complete the round-trip")
	}
}

func TestUntilDonePredicate(t *testing.T) {
	k2 := sim.NewKernel(sim.Config{N: 2, Seed: 1})
	k2.Spawn(0, func(p *sim.Proc) {})
	if UntilDone(k2, 0) {
		t.Fatal("unstarted participant reported done")
	}
	if _, err := k2.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !UntilDone(k2, 0) {
		t.Fatal("finished participant not reported done")
	}
}
