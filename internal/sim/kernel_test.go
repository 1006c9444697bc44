package sim

import (
	"errors"
	"testing"
)

// echoService replies "ack" to every "ping" and records what it saw.
type echoService struct {
	got []any
}

func (s *echoService) HandleMessage(from ProcID, payload any) (any, bool) {
	s.got = append(s.got, payload)
	if payload == "ping" {
		return "ack", true
	}
	return nil, false
}

// collector counts acks for a simple quorum-like wait.
type collector struct {
	acks int
}

func (c *collector) HandleMessage(from ProcID, payload any) (any, bool) {
	if payload == "ack" {
		c.acks++
	}
	return nil, false
}

func TestSendDeliverStepReply(t *testing.T) {
	k := NewKernel(Config{N: 2, Seed: 1})
	svc := &echoService{}
	k.SetService(1, svc)
	recv := &collector{}
	k.SetService(0, recv)
	k.Spawn(0, func(p *Proc) {
		p.Send(1, "ping")
		p.Await(func() bool { return recv.acks == 1 })
	})

	stats, err := k.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(svc.got) != 1 || svc.got[0] != "ping" {
		t.Fatalf("service saw %v, want [ping]", svc.got)
	}
	if recv.acks != 1 {
		t.Fatalf("acks = %d, want 1", recv.acks)
	}
	if stats.MessagesSent != 2 {
		t.Fatalf("MessagesSent = %d, want 2 (ping + ack)", stats.MessagesSent)
	}
	if stats.SentBy[0] != 1 || stats.SentBy[1] != 1 {
		t.Fatalf("SentBy = %v, want one message each", stats.SentBy)
	}
	if stats.ReceivedBy[0] != 1 || stats.ReceivedBy[1] != 1 {
		t.Fatalf("ReceivedBy = %v, want one delivery each", stats.ReceivedBy)
	}
}

func TestSelfSendDeliversImmediately(t *testing.T) {
	k := NewKernel(Config{N: 1, Seed: 1})
	svc := &echoService{}
	k.SetService(0, svc)
	k.Spawn(0, func(p *Proc) {
		p.Send(0, "note")
		p.Await(func() bool { return len(svc.got) == 1 })
	})
	if _, err := k.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(svc.got) != 1 || svc.got[0] != "note" {
		t.Fatalf("self-send not observed: %v", svc.got)
	}
}

func TestAlgorithmDoesNotRunBeforeStart(t *testing.T) {
	k := NewKernel(Config{N: 2, Seed: 1})
	ran := false
	k.Spawn(0, func(p *Proc) { ran = true })
	k.Spawn(1, func(p *Proc) {})

	// Drive manually: step and deliver must not start proc 0's algorithm.
	if err := k.apply(Step{Proc: 0}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if ran {
		t.Fatal("algorithm ran before Start action")
	}
	if !k.Ready(0) {
		t.Fatal("processor should still be ready")
	}
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if !ran {
		t.Fatal("algorithm did not run at Start")
	}
	if !k.Done(0) {
		t.Fatal("trivial algorithm should be done after Start")
	}
}

func TestAwaitBlocksUntilConditionAndStep(t *testing.T) {
	k := NewKernel(Config{N: 1, Seed: 1})
	cond := false
	resumed := false
	k.Spawn(0, func(p *Proc) {
		p.Await(func() bool { return cond })
		resumed = true
	})
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := k.apply(Step{Proc: 0}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if resumed {
		t.Fatal("resumed with unsatisfied condition")
	}
	cond = true
	if resumed {
		t.Fatal("resumed without a step")
	}
	if err := k.apply(Step{Proc: 0}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !resumed {
		t.Fatal("did not resume on satisfied condition")
	}
	k.shutdown()
}

func TestPauseResumesOnAnyStep(t *testing.T) {
	k := NewKernel(Config{N: 1, Seed: 1})
	stage := 0
	k.Spawn(0, func(p *Proc) {
		stage = 1
		p.Pause()
		stage = 2
	})
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if stage != 1 {
		t.Fatalf("stage = %d after Start, want 1", stage)
	}
	if !k.Resumable(0) {
		t.Fatal("paused processor should be resumable")
	}
	if err := k.apply(Step{Proc: 0}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if stage != 2 {
		t.Fatalf("stage = %d after Step, want 2", stage)
	}
}

func TestFlipPublishesAndYields(t *testing.T) {
	k := NewKernel(Config{N: 1, Seed: 42})
	var got int
	k.Spawn(0, func(p *Proc) {
		got = p.Flip(1.0) // always 1
	})
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// The algorithm must be paused at the flip, with the outcome visible.
	v, c := k.LastFlip(0)
	if c != 1 || v != 1 {
		t.Fatalf("LastFlip = (%d,%d), want (1,1)", v, c)
	}
	if k.Done(0) {
		t.Fatal("algorithm should be paused at the flip, not done")
	}
	if err := k.apply(Step{Proc: 0}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if got != 1 {
		t.Fatalf("flip returned %d, want 1", got)
	}
}

func TestFlipZeroProbability(t *testing.T) {
	k := NewKernel(Config{N: 1, Seed: 7})
	var got int
	k.Spawn(0, func(p *Proc) { got = p.Flip(0.0) })
	if _, err := k.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 {
		t.Fatalf("flip(0.0) = %d, want 0", got)
	}
}

func TestCrashUnwindsBlockedGoroutine(t *testing.T) {
	k := NewKernel(Config{N: 3, Seed: 1, MaxFaults: 1})
	reached := false
	k.Spawn(0, func(p *Proc) {
		p.Await(func() bool { return false })
		reached = true // must never run
	})
	k.Spawn(1, func(p *Proc) {})
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := k.apply(Crash{Proc: 0}); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if reached {
		t.Fatal("crashed algorithm continued past Await")
	}
	if !k.Crashed(0) {
		t.Fatal("processor not marked crashed")
	}
	if err := k.apply(Step{Proc: 0}); !errors.Is(err, ErrIllegalAction) {
		t.Fatalf("step of crashed processor: err = %v, want ErrIllegalAction", err)
	}
}

func TestCrashDropOutgoing(t *testing.T) {
	k := NewKernel(Config{N: 3, Seed: 1, MaxFaults: 1})
	k.Spawn(0, func(p *Proc) {
		p.Send(1, "x")
		p.Send(2, "y")
		p.Pause()
	})
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if k.InflightCount() != 2 {
		t.Fatalf("InflightCount = %d, want 2", k.InflightCount())
	}
	if err := k.apply(Crash{Proc: 0, DropOutgoing: true}); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if k.InflightCount() != 0 {
		t.Fatalf("InflightCount after drop = %d, want 0", k.InflightCount())
	}
}

func TestCrashFaultBudget(t *testing.T) {
	k := NewKernel(Config{N: 5, Seed: 1, MaxFaults: -1}) // ⌈5/2⌉−1 = 2
	if err := k.apply(Crash{Proc: 0}); err != nil {
		t.Fatalf("crash 0: %v", err)
	}
	if err := k.apply(Crash{Proc: 1}); err != nil {
		t.Fatalf("crash 1: %v", err)
	}
	if err := k.apply(Crash{Proc: 2}); !errors.Is(err, ErrIllegalAction) {
		t.Fatalf("third crash: err = %v, want ErrIllegalAction", err)
	}
	if k.FaultBudget() != 0 {
		t.Fatalf("FaultBudget = %d, want 0", k.FaultBudget())
	}
}

func TestDeliverToCrashedIsNoop(t *testing.T) {
	k := NewKernel(Config{N: 2, Seed: 1, MaxFaults: 1})
	k.Spawn(0, func(p *Proc) {
		p.Send(1, "late")
		p.Pause()
	})
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := k.apply(Crash{Proc: 1}); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	id, ok := k.OldestInflight()
	if !ok {
		t.Fatal("expected an in-flight message")
	}
	if err := k.apply(Deliver{Msg: id}); err != nil {
		t.Fatalf("Deliver to crashed: %v", err)
	}
	if len(k.procs[1].mailbox) != 0 {
		t.Fatal("crashed processor accumulated mailbox")
	}
}

func TestIllegalActions(t *testing.T) {
	k := NewKernel(Config{N: 2, Seed: 1})
	k.Spawn(0, func(p *Proc) {})
	cases := []struct {
		name string
		a    Action
	}{
		{"deliver unknown", Deliver{Msg: 999}},
		{"step out of range", Step{Proc: 17}},
		{"start non-participant", Start{Proc: 1}},
		{"start out of range", Start{Proc: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := k.apply(tc.a); !errors.Is(err, ErrIllegalAction) {
				t.Fatalf("err = %v, want ErrIllegalAction", err)
			}
		})
	}
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("legal start: %v", err)
	}
	if err := k.apply(Start{Proc: 0}); !errors.Is(err, ErrIllegalAction) {
		t.Fatalf("double start: err = %v, want ErrIllegalAction", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	k := NewKernel(Config{N: 1, Seed: 1, Budget: 10})
	k.Spawn(0, func(p *Proc) {
		for {
			p.Pause() // spin forever
		}
	})
	if _, err := k.Run(nil); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestStuckDetection(t *testing.T) {
	k := NewKernel(Config{N: 2, Seed: 1})
	k.Spawn(0, func(p *Proc) {
		p.Await(func() bool { return false }) // unsatisfiable
	})
	if _, err := k.Run(nil); !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
}

func TestAlgorithmPanicSurfaces(t *testing.T) {
	k := NewKernel(Config{N: 1, Seed: 1})
	k.Spawn(0, func(p *Proc) {
		panic("boom")
	})
	_, err := k.Run(nil)
	if err == nil {
		t.Fatal("expected error from panicking algorithm")
	}
}

func TestRunTwiceRejected(t *testing.T) {
	k := NewKernel(Config{N: 1, Seed: 1})
	k.Spawn(0, func(p *Proc) {})
	if _, err := k.Run(nil); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if _, err := k.Run(nil); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestHaltFallsBackToFairScheduler(t *testing.T) {
	k := NewKernel(Config{N: 2, Seed: 1})
	recv := &collector{}
	k.SetService(0, recv)
	k.SetService(1, &echoService{})
	k.Spawn(0, func(p *Proc) {
		p.Send(1, "ping")
		p.Await(func() bool { return recv.acks == 1 })
	})
	adv := AdversaryFunc(func(k *Kernel) Action { return Halt{} })
	if _, err := k.Run(adv); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPublishedStateVisible(t *testing.T) {
	type st struct{ Phase int }
	k := NewKernel(Config{N: 1, Seed: 1})
	s := &st{}
	k.Spawn(0, func(p *Proc) {
		p.Publish(s)
		s.Phase = 3
		p.Pause()
		s.Phase = 7
	})
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	got, ok := k.Published(0).(*st)
	if !ok || got.Phase != 3 {
		t.Fatalf("Published = %#v, want Phase 3", k.Published(0))
	}
	if err := k.apply(Step{Proc: 0}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if got.Phase != 7 {
		t.Fatalf("Phase = %d, want 7", got.Phase)
	}
}

func TestNoteCommunicateCountsPerProcessor(t *testing.T) {
	k := NewKernel(Config{N: 3, Seed: 1})
	k.Spawn(2, func(p *Proc) {
		p.NoteCommunicate()
		p.NoteCommunicate()
	})
	stats, err := k.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.CommCalls[2] != 2 {
		t.Fatalf("CommCalls[2] = %d, want 2", stats.CommCalls[2])
	}
	if stats.MaxCommunicateCalls() != 2 {
		t.Fatalf("MaxCommunicateCalls = %d, want 2", stats.MaxCommunicateCalls())
	}
	for id, c := range stats.CommCalls {
		if id != 2 && c != 0 {
			t.Fatalf("CommCalls[%d] = %d, want 0", id, c)
		}
	}
}

func TestInflightQueries(t *testing.T) {
	k := NewKernel(Config{N: 3, Seed: 1})
	k.Spawn(0, func(p *Proc) {
		p.Send(1, "a")
		p.Send(2, "b")
		p.Send(1, "c")
		p.Pause()
	})
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if got := k.InflightCount(); got != 3 {
		t.Fatalf("InflightCount = %d, want 3", got)
	}
	id, ok := k.toProc[1].front(k.alive)
	if !ok || k.msgs[id].Payload != "a" {
		t.Fatalf("the oldest message in flight to 1 is wrong: ok=%v", ok)
	}
	var seen []any
	k.EachInflightFrom(0, func(m *Message) bool {
		seen = append(seen, m.Payload)
		return true
	})
	if len(seen) != 3 || seen[0] != "a" || seen[1] != "b" || seen[2] != "c" {
		t.Fatalf("EachInflightFrom order = %v", seen)
	}
	if err := k.apply(Deliver{Msg: id}); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	id2, ok := k.toProc[1].front(k.alive)
	if !ok || k.msgs[id2].Payload != "c" {
		t.Fatal("queue did not skip the delivered message")
	}
	if k.msgs[id] != nil {
		t.Fatal("delivered message still reported in flight")
	}
}

func TestRandomInflightUniformAndLive(t *testing.T) {
	k := NewKernel(Config{N: 2, Seed: 3})
	k.Spawn(0, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Send(1, i)
		}
		p.Pause()
	})
	if err := k.apply(Start{Proc: 0}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	rng := newRand(99, 1)
	seen := map[MsgID]bool{}
	for i := 0; i < 200; i++ {
		id, ok := k.RandomInflight(rng)
		if !ok {
			t.Fatal("no in-flight message")
		}
		if k.msgs[id] == nil {
			t.Fatal("RandomInflight returned dead message")
		}
		seen[id] = true
	}
	if len(seen) < 8 {
		t.Fatalf("random picks covered only %d of 10 messages", len(seen))
	}
}

func TestParticipantsAndUnfinished(t *testing.T) {
	k := NewKernel(Config{N: 4, Seed: 1})
	k.Spawn(1, func(p *Proc) {})
	k.Spawn(3, func(p *Proc) {})
	ps := k.Participants()
	if len(ps) != 2 || ps[0] != 1 || ps[1] != 3 {
		t.Fatalf("Participants = %v", ps)
	}
	if k.UnfinishedParticipants() != 2 {
		t.Fatalf("UnfinishedParticipants = %d, want 2", k.UnfinishedParticipants())
	}
	if _, err := k.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.UnfinishedParticipants() != 0 {
		t.Fatalf("UnfinishedParticipants = %d, want 0", k.UnfinishedParticipants())
	}
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func TestPayloadBytesAccounting(t *testing.T) {
	k := NewKernel(Config{N: 2, Seed: 1})
	k.Spawn(0, func(p *Proc) {
		p.Send(1, sized{n: 10})
		p.Send(1, sized{n: 5})
		p.Send(1, "unsized")
	})
	stats, err := k.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.PayloadBytes != 15 {
		t.Fatalf("PayloadBytes = %d, want 15", stats.PayloadBytes)
	}
}

func TestStatsCloneIsDeep(t *testing.T) {
	k := NewKernel(Config{N: 2, Seed: 1})
	k.Spawn(0, func(p *Proc) { p.NoteCommunicate() })
	stats, err := k.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats.CommCalls[0] = 999
	if k.stats.CommCalls[0] == 999 {
		t.Fatal("Stats aliases kernel-owned slice")
	}
}

func TestCrashedParticipantEndsRun(t *testing.T) {
	// A run whose only participant crashes should finish, not hang.
	k := NewKernel(Config{N: 3, Seed: 1, MaxFaults: 1})
	k.Spawn(0, func(p *Proc) {
		p.Await(func() bool { return false })
	})
	crashed := false
	adv := AdversaryFunc(func(k *Kernel) Action {
		if !crashed {
			if k.Ready(0) {
				return Start{Proc: 0}
			}
			crashed = true
			return Crash{Proc: 0}
		}
		return nil
	})
	if _, err := k.Run(adv); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
