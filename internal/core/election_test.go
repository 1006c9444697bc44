package core

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/sim"
)

func TestLeaderElectUniqueWinnerFullParticipation(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16, 32} {
		for seed := int64(0); seed < 8; seed++ {
			r := runElection(n, n, seed, nil)
			checkElection(t, r, n)
		}
	}
}

func TestLeaderElectUniqueWinnerPartialParticipation(t *testing.T) {
	// Adaptivity: k < n participants, the rest only acknowledge.
	cases := []struct{ n, k int }{
		{8, 1}, {8, 2}, {16, 3}, {32, 5}, {33, 17}, {64, 2},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 5; seed++ {
			r := runElection(tc.n, tc.k, seed, nil)
			checkElection(t, r, tc.k)
		}
	}
}

func TestLeaderElectSoloWinsInTwoRounds(t *testing.T) {
	// A lone participant observes R = 0 and must win in round 2
	// (Theorem A.5's k = 1 case).
	k2 := sim.NewKernel(sim.Config{N: 8, Seed: 1})
	stores := quorum.InstallStores(k2)
	var d Decision
	var st *State
	k2.Spawn(0, func(p *sim.Proc) {
		c := quorum.NewComm(p, stores[0])
		st = NewState(p, "leaderelect")
		d = LeaderElectWithState(c, "elect", st)
	})
	if _, err := k2.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d != Win {
		t.Fatalf("solo participant returned %v, want WIN", d)
	}
	if st.Round != 2 {
		t.Fatalf("solo participant decided in round %d, want 2", st.Round)
	}
}

func TestLeaderElectTimeIsLogStar(t *testing.T) {
	// Theorem A.5: O(log* k) communicate calls per processor. log*(1024)=4;
	// with the protocol's constants (8 calls per round through the doorway,
	// pre-round and four-call sift) a generous deterministic cap is 60.
	for _, k := range []int{4, 16, 64, 256} {
		worst := 0
		for seed := int64(0); seed < 5; seed++ {
			r := runElection(k, k, seed, nil)
			checkElection(t, r, k)
			if mc := r.stats.MaxCommunicateCalls(); mc > worst {
				worst = mc
			}
		}
		if worst > 60 {
			t.Fatalf("k=%d: max communicate calls %d exceed log* bound", k, worst)
		}
	}
}

func TestLeaderElectMessagesLinearInKTimesN(t *testing.T) {
	// Theorem A.5: O(kn) messages. Check messages/(kn) stays below a fixed
	// constant as k scales.
	const n = 128
	for _, k := range []int{8, 32, 128} {
		var worst float64
		for seed := int64(0); seed < 3; seed++ {
			r := runElection(n, k, seed, nil)
			checkElection(t, r, k)
			ratio := float64(r.stats.MessagesSent) / float64(k*n)
			if ratio > worst {
				worst = ratio
			}
		}
		if worst > 40 {
			t.Fatalf("k=%d: messages/(kn) = %.1f blows the O(kn) bound", k, worst)
		}
	}
}

func TestDoorwayClosedDoorLoses(t *testing.T) {
	// A participant that starts strictly after another finished the doorway
	// must observe the closed door and lose (Fig 5 lines 56-58).
	k2 := sim.NewKernel(sim.Config{N: 5, Seed: 1})
	stores := quorum.InstallStores(k2)
	firstThrough := false
	var late Decision
	k2.Spawn(0, func(p *sim.Proc) {
		c := quorum.NewComm(p, stores[0])
		s := NewState(p, "doorway")
		if Doorway(c, "elect", s) != Proceed {
			t.Error("first participant should pass the doorway")
		}
		firstThrough = true
	})
	k2.Spawn(1, func(p *sim.Proc) {
		c := quorum.NewComm(p, stores[1])
		p.Await(func() bool { return firstThrough })
		s := NewState(p, "doorway")
		late = Doorway(c, "elect", s)
	})
	if _, err := k2.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if late != Lose {
		t.Fatalf("late participant returned %v, want LOSE", late)
	}
}

func TestLinearizabilityLateComersLose(t *testing.T) {
	// Lemma A.3's mechanism: if a winner completed its entire execution
	// before another participant is started, the latecomer must lose.
	k2 := sim.NewKernel(sim.Config{N: 6, Seed: 2})
	stores := quorum.InstallStores(k2)
	decisions := make(map[sim.ProcID]Decision)
	for i := 0; i < 2; i++ {
		id := sim.ProcID(i)
		k2.Spawn(id, func(p *sim.Proc) {
			c := quorum.NewComm(p, stores[id])
			decisions[id] = LeaderElectWithState(c, "elect", NewState(p, "leaderelect"))
		})
	}
	// Adversary: run participant 0 to completion before starting 1.
	adv := sim.AdversaryFunc(func(k *sim.Kernel) sim.Action {
		if !k.Started(0) {
			return sim.Start{Proc: 0}
		}
		if !k.Done(0) {
			if k.Steppable(0) {
				return sim.Step{Proc: 0}
			}
			return k.FairActionExcludingStarts()
		}
		if !k.Started(1) {
			return sim.Start{Proc: 1}
		}
		return nil
	})
	if _, err := k2.Run(adv); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if decisions[0] != Win {
		t.Fatalf("solo-finishing participant returned %v, want WIN", decisions[0])
	}
	if decisions[1] != Lose {
		t.Fatalf("latecomer returned %v, want LOSE", decisions[1])
	}
}

func TestPreRoundRules(t *testing.T) {
	// Drive PreRound through its three outcomes using two participants with
	// controlled rounds.
	k2 := sim.NewKernel(sim.Config{N: 4, Seed: 3})
	stores := quorum.InstallStores(k2)
	aheadDone := false
	var lateDecision, aheadDecision Decision
	k2.Spawn(0, func(p *sim.Proc) {
		c := quorum.NewComm(p, stores[0])
		s := NewState(p, "preround")
		// Rounds 1..3 solo: R stays 0, so round 1 proceeds (R=0 ≥ r−1=0),
		// and round 2 wins (R=0 < 1).
		if got := PreRound(c, "e", 1, s); got != Proceed {
			t.Errorf("round 1 solo = %v, want PROCEED", got)
		}
		aheadDecision = PreRound(c, "e", 2, s)
		aheadDone = true
	})
	k2.Spawn(1, func(p *sim.Proc) {
		c := quorum.NewComm(p, stores[1])
		p.Await(func() bool { return aheadDone })
		s := NewState(p, "preround")
		lateDecision = PreRound(c, "e", 1, s) // sees R = 2 > 1: lose
	})
	if _, err := k2.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if aheadDecision != Win {
		t.Fatalf("ahead participant round 2 = %v, want WIN", aheadDecision)
	}
	if lateDecision != Lose {
		t.Fatalf("behind participant = %v, want LOSE", lateDecision)
	}
}

func TestElectionDeterministicForSeed(t *testing.T) {
	a := runElection(16, 16, 77, nil)
	b := runElection(16, 16, 77, nil)
	checkElection(t, a, 16)
	checkElection(t, b, 16)
	for id, d := range a.decisions {
		if b.decisions[id] != d {
			t.Fatalf("decision of %d differs across identical runs", id)
		}
	}
	if a.stats.MessagesSent != b.stats.MessagesSent || a.stats.Actions != b.stats.Actions {
		t.Fatal("stats differ across identical runs")
	}
}

func TestElectionSeedsDiffer(t *testing.T) {
	// Different seeds should (generically) produce different executions —
	// guards against accidentally ignoring the seed.
	a := runElection(16, 16, 1, nil)
	b := runElection(16, 16, 2, nil)
	if a.stats.MessagesSent == b.stats.MessagesSent && a.stats.Actions == b.stats.Actions {
		t.Skip("seeds coincidentally identical; acceptable but unexpected")
	}
}
