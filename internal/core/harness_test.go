package core

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/sim"
)

// electionRun is the result of one simulated election.
type electionRun struct {
	decisions map[sim.ProcID]Decision
	stats     sim.Stats
	err       error
}

// runElection simulates leader election with participants on the first k of
// n processors under the given adversary (nil = built-in fair scheduler).
func runElection(n, k int, seed int64, adv sim.Adversary) electionRun {
	k2 := sim.NewKernel(sim.Config{N: n, Seed: seed, MaxFaults: -1})
	stores := quorum.InstallStores(k2)
	decisions := make(map[sim.ProcID]Decision, k)
	for i := 0; i < k; i++ {
		id := sim.ProcID(i)
		k2.Spawn(id, func(p *sim.Proc) {
			c := quorum.NewComm(p, stores[id])
			decisions[id] = LeaderElectWithState(c, "elect", NewState(p, "leaderelect"))
		})
	}
	stats, err := k2.Run(adv)
	return electionRun{decisions: decisions, stats: stats, err: err}
}

// runSift simulates one standalone sift instance (basic or heterogeneous)
// with participants on the first k of n processors under the built-in fair
// scheduler, judges it and returns its survivor count.
func runSift(n, k int, seed int64, het bool) (int, error) {
	k2 := sim.NewKernel(sim.Config{N: n, Seed: seed, MaxFaults: -1})
	stores := quorum.InstallStores(k2)
	outcomes := make(map[sim.ProcID]Outcome, k)
	for i := 0; i < k; i++ {
		id := sim.ProcID(i)
		k2.Spawn(id, func(p *sim.Proc) {
			c := quorum.NewComm(p, stores[id])
			s := NewState(p, "sift")
			if het {
				outcomes[id] = HetPoisonPill(c, "pp", s)
			} else {
				outcomes[id] = PoisonPill(c, "pp", s)
			}
		})
	}
	if _, err := k2.Run(nil); err != nil {
		return 0, err
	}
	return JudgeSift(k, outcomes)
}

// instrumentedSift runs one full-participation sift and returns the kernel,
// outcomes, and each participant's published State.
func instrumentedSift(t *testing.T, n int, seed int64, het bool) (*sim.Kernel, map[sim.ProcID]Outcome, map[sim.ProcID]*State) {
	t.Helper()
	k2 := sim.NewKernel(sim.Config{N: n, Seed: seed})
	stores := quorum.InstallStores(k2)
	outcomes := make(map[sim.ProcID]Outcome, n)
	states := make(map[sim.ProcID]*State, n)
	for i := 0; i < n; i++ {
		id := sim.ProcID(i)
		k2.Spawn(id, func(p *sim.Proc) {
			c := quorum.NewComm(p, stores[id])
			s := NewState(p, "sift")
			states[id] = s
			if het {
				outcomes[id] = HetPoisonPill(c, "pp", s)
			} else {
				outcomes[id] = PoisonPill(c, "pp", s)
			}
		})
	}
	if _, err := k2.Run(nil); err != nil {
		t.Fatalf("instrumentedSift(n=%d, seed=%d): %v", n, seed, err)
	}
	return k2, outcomes, states
}

// viewEntry is a compact test description of one status observation.
type viewEntry struct {
	owner int
	stat  StatKind
	list  []int
}

// buildViews assembles quorum views, one per entry (a real view holds at
// most one cell per owner, so conflicting observations of the same owner
// live in distinct views).
func buildViews(n int, entries []viewEntry) []quorum.View {
	var views []quorum.View
	for i, e := range entries {
		var list []sim.ProcID
		for _, q := range e.list {
			list = append(list, sim.ProcID(q))
		}
		views = append(views, quorum.View{
			From: sim.ProcID(i % n),
			Entries: []quorum.Entry{{
				Reg:   "pp/status",
				Owner: sim.ProcID(e.owner),
				Seq:   1,
				Val:   Status{Stat: e.stat, List: list},
			}},
		})
	}
	return views
}

// checkElection asserts the fundamental safety properties: every participant
// decided, and the election judge accepts the decisions.
func checkElection(t *testing.T, r electionRun, k int) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("election run failed: %v", r.err)
	}
	if len(r.decisions) != k {
		t.Fatalf("%d of %d participants decided", len(r.decisions), k)
	}
	if _, err := JudgeElection(k, r.decisions); err != nil {
		t.Fatal(err)
	}
}
