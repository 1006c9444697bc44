package quorum

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// runOn builds an n-processor kernel with stores installed, spawns the given
// algorithms (indexed by processor), runs with the fair scheduler and
// returns the stats.
func runOn(t *testing.T, n int, seed int64, algos map[sim.ProcID]func(*Comm)) sim.Stats {
	t.Helper()
	k := sim.NewKernel(sim.Config{N: n, Seed: seed})
	stores := InstallStores(k)
	for id, fn := range algos {
		id, fn := id, fn
		k.Spawn(id, func(p *sim.Proc) {
			fn(NewComm(p, stores[id]))
		})
	}
	stats, err := k.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

func TestPropagateReachesQuorumAndCollectSeesIt(t *testing.T) {
	const n = 5
	var views []View
	runOn(t, n, 1, map[sim.ProcID]func(*Comm){
		0: func(c *Comm) {
			c.Propagate("r", "hello")
			views = c.Collect("r")
		},
	})
	if len(views) < n/2+1 {
		t.Fatalf("collected %d views, want >= %d", len(views), n/2+1)
	}
	// The caller's own view must show the write.
	found := false
	for _, v := range views {
		if val, ok := v.Get(0); ok {
			if val != "hello" {
				t.Fatalf("view of cell 0 = %v, want hello", val)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no collected view contains the propagated value")
	}
}

func TestTwoCallsIntersect(t *testing.T) {
	// The fundamental property: a Collect that starts after a Propagate
	// completed must observe the propagated value in at least one view —
	// under any schedule. We drive an adversarial schedule that serves the
	// two calls from complementary halves as much as legality permits.
	const n = 5
	k := sim.NewKernel(sim.Config{N: n, Seed: 7})
	stores := InstallStores(k)

	sawIt := false
	propagateDone := false
	k.Spawn(0, func(p *sim.Proc) {
		c := NewComm(p, stores[0])
		c.Propagate("x", 42)
		propagateDone = true
		p.Pause()
	})
	k.Spawn(1, func(p *sim.Proc) {
		c := NewComm(p, stores[1])
		p.Await(func() bool { return propagateDone })
		views := c.Collect("x")
		for _, v := range views {
			if val, ok := v.Get(0); ok && val == 42 {
				sawIt = true
			}
		}
	})
	if _, err := k.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sawIt {
		t.Fatal("collect after completed propagate missed the write: quorum intersection violated")
	}
}

func TestSeqNewerWinsOlderIgnored(t *testing.T) {
	s := NewStore(0, 3)
	s.regs.Merge(&Entry{Reg: "r", Owner: 1, Seq: 2, Val: "new"})
	s.regs.Merge(&Entry{Reg: "r", Owner: 1, Seq: 1, Val: "old"})
	if got := s.regs.Load("r", 1); got == nil || got.Val != "new" {
		t.Fatalf("cell = %+v, want new", got)
	}
	s.regs.Merge(&Entry{Reg: "r", Owner: 1, Seq: 3, Val: "newest"})
	if got := s.regs.Load("r", 1); got.Val != "newest" {
		t.Fatalf("cell after newer merge = %+v, want newest", got)
	}
}

func TestSnapshotSparseAndOrdered(t *testing.T) {
	s := NewStore(0, 4)
	s.regs.Merge(&Entry{Reg: "r", Owner: 3, Seq: 1, Val: "c"})
	s.regs.Merge(&Entry{Reg: "r", Owner: 1, Seq: 1, Val: "a"})
	snap := s.Snapshot("r")
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2 (sparse)", len(snap))
	}
	if snap[0].Owner != 1 || snap[1].Owner != 3 {
		t.Fatalf("snapshot order %v, want owner order", snap)
	}
	if s.Snapshot("missing") != nil {
		t.Fatal("snapshot of unknown register should be nil")
	}
}

func TestViewGet(t *testing.T) {
	v := View{From: 2, Entries: []Entry{{Reg: "r", Owner: 1, Seq: 1, Val: "x"}}}
	if got, ok := v.Get(1); !ok || got != "x" {
		t.Fatalf("Get(1) = %v,%v", got, ok)
	}
	if _, ok := v.Get(0); ok {
		t.Fatal("Get(0) should be ⊥")
	}
}

func TestPropagateOverwritesOwnCell(t *testing.T) {
	var final Value
	runOn(t, 3, 2, map[sim.ProcID]func(*Comm){
		0: func(c *Comm) {
			c.Propagate("r", "first")
			c.Propagate("r", "second")
			views := c.Collect("r")
			for _, v := range views {
				if v.From == 0 {
					final, _ = v.Get(0)
				}
			}
		},
	})
	if final != "second" {
		t.Fatalf("own cell = %v, want second", final)
	}
}

func TestCommunicateCallCounting(t *testing.T) {
	stats := runOn(t, 5, 3, map[sim.ProcID]func(*Comm){
		0: func(c *Comm) {
			c.Propagate("r", 1) // 1
			c.Collect("r")      // 2
			c.Collect("r")      // 3
		},
	})
	if stats.CommCalls[0] != 3 {
		t.Fatalf("CommCalls[0] = %d, want 3", stats.CommCalls[0])
	}
}

func TestMessageCostLinearPerCall(t *testing.T) {
	const n = 9
	stats := runOn(t, n, 4, map[sim.ProcID]func(*Comm){
		0: func(c *Comm) {
			c.Propagate("r", 1)
		},
	})
	// One propagate: n-1 requests; every processor that is stepped with the
	// request replies once. Bounded by 2(n-1).
	if stats.MessagesSent > int64(2*(n-1)) {
		t.Fatalf("MessagesSent = %d, want <= %d", stats.MessagesSent, 2*(n-1))
	}
	if stats.MessagesSent < int64(n-1+n/2) {
		t.Fatalf("MessagesSent = %d suspiciously low", stats.MessagesSent)
	}
}

func TestConcurrentCollectsFromAllProcessors(t *testing.T) {
	const n = 7
	counts := make([]int, n)
	algos := map[sim.ProcID]func(*Comm){}
	for i := 0; i < n; i++ {
		i := i
		algos[sim.ProcID(i)] = func(c *Comm) {
			c.Propagate("r", i)
			views := c.Collect("r")
			counts[i] = len(views)
		}
	}
	runOn(t, n, 5, algos)
	for i, got := range counts {
		if got < n/2+1 {
			t.Fatalf("processor %d collected %d views, want >= %d", i, got, n/2+1)
		}
	}
}

func TestCollectSurvivesMinorityCrash(t *testing.T) {
	// With ⌈n/2⌉−1 = 2 crashed processors out of 5, communicate calls must
	// still complete: a quorum of 3 is alive.
	const n = 5
	k := sim.NewKernel(sim.Config{N: n, Seed: 6, MaxFaults: -1})
	stores := InstallStores(k)
	var got []View
	k.Spawn(0, func(p *sim.Proc) {
		c := NewComm(p, stores[0])
		c.Propagate("r", "v")
		got = c.Collect("r")
	})
	crashed := 0
	adv := sim.AdversaryFunc(func(k *sim.Kernel) sim.Action {
		if crashed < 2 {
			crashed++
			return sim.Crash{Proc: sim.ProcID(crashed + 2), DropOutgoing: true}
		}
		return nil
	})
	if _, err := k.Run(adv); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) < 3 {
		t.Fatalf("collected %d views, want >= 3", len(got))
	}
}

func TestStaleAcksIgnored(t *testing.T) {
	// An ack for a finished call must not satisfy a later call's quorum.
	s := NewStore(0, 5)
	s.pending[1] = &pendingCall{}
	s.HandleMessage(1, ackMsg{Call: 1})
	if s.pending[1].acks != 1 {
		t.Fatal("live ack not recorded")
	}
	delete(s.pending, 1)
	// Late ack after the call completed: dropped silently.
	s.HandleMessage(2, ackMsg{Call: 1})
	s.pending[2] = &pendingCall{}
	s.HandleMessage(3, ackMsg{Call: 99})
	if s.pending[2].acks != 0 {
		t.Fatal("mismatched ack credited to the wrong call")
	}
}

func TestUnknownPayloadIgnored(t *testing.T) {
	s := NewStore(0, 3)
	if reply, ok := s.HandleMessage(1, "garbage"); ok || reply != nil {
		t.Fatal("unknown payload should be ignored without a reply")
	}
}

func TestNEqualsOne(t *testing.T) {
	var views []View
	runOn(t, 1, 8, map[sim.ProcID]func(*Comm){
		0: func(c *Comm) {
			c.Propagate("r", "solo")
			views = c.Collect("r")
		},
	})
	if len(views) != 1 {
		t.Fatalf("views = %d, want 1", len(views))
	}
	if v, ok := views[0].Get(0); !ok || v != "solo" {
		t.Fatalf("solo view = %v,%v", v, ok)
	}
}

// TestWireSizes pins every message's sim size to its internal/wire
// encoding: the frame body wire.Append writes for the same message, which
// is wire.Msg.BodySize, the size the chan substrate books.
func TestWireSizes(t *testing.T) {
	e := Entry{Reg: "r", Owner: 1, Seq: 1, Val: 5}
	entries := []Entry{e, {Reg: "r", Owner: 300, Seq: 1 << 20, Val: true}}
	for _, c := range []struct {
		sim  interface{ WireSize() int }
		wire wire.Msg
	}{
		{propagateMsg{Call: 7, From: 3, Entries: entries}, wire.Msg{Kind: wire.KindPropagate, Call: 7, From: 3, Reg: "r", Entries: entries}},
		{ackMsg{Call: 200, From: 130}, wire.Msg{Kind: wire.KindAck, Call: 200, From: 130}},
		{collectMsg{Call: 7, From: 3, Reg: "r"}, wire.Msg{Kind: wire.KindCollect, Call: 7, From: 3, Reg: "r"}},
		{collectAck{Call: 7, From: 3, Reg: "r", Entries: entries}, wire.Msg{Kind: wire.KindView, Call: 7, From: 3, Reg: "r", Entries: entries}},
		// An empty view still names its register array.
		{collectAck{Call: 7, From: 3, Reg: "elect/door"}, wire.Msg{Kind: wire.KindView, Call: 7, From: 3, Reg: "elect/door"}},
	} {
		frame, err := wire.Append(nil, &c.wire)
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := wire.SplitFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.sim.WireSize(); got != len(body) {
			t.Errorf("%T: sim size %d, wire body %d", c.sim, got, len(body))
		}
	}
}

func TestQuorumSize(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {6, 4}, {7, 4}, {100, 51},
	} {
		s := NewStore(0, tc.n)
		k := sim.NewKernel(sim.Config{N: tc.n, Seed: 1})
		done := make(chan int, 1)
		k.Spawn(0, func(p *sim.Proc) {
			c := NewComm(p, s)
			done <- c.QuorumSize()
		})
		k.SetService(0, s)
		if _, err := k.Run(nil); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got := <-done; got != tc.want {
			t.Fatalf("QuorumSize(n=%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
