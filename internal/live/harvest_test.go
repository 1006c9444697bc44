package live

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rt"
)

// The one-wake-up harvest on the chan substrate: the servers assemble a
// call's quorum on the caller's call slot and the completing delivery
// signals the waiting communicate exactly once (see callSlot) — the
// counterpart of internal/electd/harvest_test.go. Most tests below play the
// servers themselves, on a system built without server goroutines, so every
// reply a call sees is one the test delivered, in the order it chose.

const (
	harvestN    = 9            // quorum 5, need 4; a first wave asks peers 1…6 of caller 0
	harvestNeed = harvestN / 2 // replies a call of the stage's caller waits for
	harvestWait = 10 * time.Second
)

// arrival is one request reaching peer j's mailbox.
type arrival struct {
	j   rt.ProcID
	req request
}

// stage is a harvestN-processor system without server goroutines and
// processor 0's handle on it: the test reads the mailboxes and answers, or
// does not.
type stage struct {
	t   *testing.T
	sys *System
	c   *Comm
	in  chan arrival
}

func newStage(t *testing.T, seed int64, plan *fault.Plan) *stage {
	t.Helper()
	sys := newSystem(harvestN, seed, plan, false)
	st := &stage{t: t, sys: sys, c: NewComm(sys.Proc(0), sys.profile(0, nil)), in: make(chan arrival)}
	stop := make(chan struct{})
	for _, p := range sys.procs {
		go func() { // ends at the cleanup below
			for req := range p.inbox {
				sys.reqs.Done()
				select {
				case st.in <- arrival{p.id, req}:
				case <-stop:
				}
			}
		}()
	}
	t.Cleanup(func() {
		close(stop)
		sys.Shutdown()
	})
	return st
}

// next is the next request to reach any mailbox.
func (st *stage) next() arrival {
	st.t.Helper()
	select {
	case a := <-st.in:
		return a
	case <-time.After(harvestWait):
		st.t.Fatal("no request reached a mailbox")
		panic("unreachable")
	}
}

// wave takes one request from each of the given peers, whatever order they
// arrive in, and returns them by peer.
func (st *stage) wave(peers ...rt.ProcID) map[rt.ProcID]request {
	st.t.Helper()
	got := make(map[rt.ProcID]request, len(peers))
	for len(got) < len(peers) {
		a := st.next()
		if _, dup := got[a.j]; dup || !slices.Contains(peers, a.j) {
			st.t.Fatalf("peer %d got a request, want one each for %v (have %d)", a.j, peers, len(got))
		}
		got[a.j] = a.req
	}
	return got
}

// answer delivers peer j's reply to req, as serve would.
func answer(j rt.ProcID, req request) {
	req.slot.deliver(req.call, reply{from: j, view: rt.View{From: j}})
}

// collect runs one Collect on the stage's handle in its own goroutine and
// reports the views, or the error it unwound with.
type collected struct {
	views []rt.View
	err   error
}

func (st *stage) collect() <-chan collected {
	done := make(chan collected, 1)
	go func() {
		var r collected
		defer func() {
			if x := recover(); x != nil {
				r.err = x.(error)
			}
			done <- r
		}()
		r.views = st.c.Collect("r")
	}()
	return done
}

func (st *stage) result(done <-chan collected) collected {
	st.t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(harvestWait):
		st.t.Fatal("the call did not return")
		panic("unreachable")
	}
}

// slotState reads the slot as a server would find it.
func slotState(s *callSlot) (call uint64, replies, signals int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.call, len(s.replies), len(s.sig)
}

func wantSlot(t *testing.T, s *callSlot, when string, call uint64, replies, signals int) {
	t.Helper()
	if c, r, g := slotState(s); c != call || r != replies || g != signals {
		t.Fatalf("%s: slot open for %d with %d replies and %d signals, want %d, %d and %d", when, c, r, g, call, replies, signals)
	}
}

// distinctQuorum checks a Collect's views: the caller's own first, then
// exactly quorum−1 distinct peers'.
func distinctQuorum(t *testing.T, views []rt.View, n int, self rt.ProcID) {
	t.Helper()
	if len(views) != n/2+1 || views[0].From != self {
		t.Fatalf("collect returned %d views, the first from %d; want %d, the caller's own first", len(views), views[0].From, n/2+1)
	}
	seen := make(map[rt.ProcID]bool, len(views))
	for _, v := range views {
		if seen[v.From] || v.From < 0 || int(v.From) >= n {
			t.Fatalf("views %v: sender %d repeats or is no processor", views, v.From)
		}
		seen[v.From] = true
	}
}

// TestSlotSignalsOnce drives deliver directly: the need-th distinct reply to
// the open ordinal — not an earlier one, not a repeat, not a reply to
// another ordinal — puts exactly one signal on the slot, and everything
// after it dies without a second.
func TestSlotSignalsOnce(t *testing.T) {
	st := newStage(t, 1, nil)
	s := &st.c.slot
	if s.need != harvestNeed {
		t.Fatalf("slot needs %d replies, want %d", s.need, harvestNeed)
	}
	at := func(call uint64, j rt.ProcID) { s.deliver(call, reply{from: j}) }

	at(1, 1)
	wantSlot(t, s, "a reply to a closed slot", 0, 0, 0)
	s.open(7)
	at(7, 1)
	at(7, 2)
	at(7, 2) // a repeat answer
	at(6, 3) // a straggler of the ordinal before
	at(8, 3) // and one of an ordinal not opened yet
	wantSlot(t, s, "two distinct replies, a repeat and two strays", 7, 2, 0)
	at(7, 3)
	wantSlot(t, s, "one short of the quorum", 7, harvestNeed-1, 0)
	at(7, 4)
	wantSlot(t, s, "the quorum's last reply", 7, harvestNeed, 1)
	at(7, 5)
	at(7, 1)
	wantSlot(t, s, "two replies past the quorum", 7, harvestNeed, 1)
	for i, r := range s.replies {
		if r.from != rt.ProcID(i+1) {
			t.Fatalf("slot holds %v, want the first %d distinct senders in arrival order", s.replies, harvestNeed)
		}
	}

	// The caller's side of the hand-off: take the token, close, open the
	// next ordinal. The straggler of 7 that arrives now is refused, and 8
	// still needs every one of its own replies.
	<-s.sig
	s.close()
	at(7, 6)
	wantSlot(t, s, "a straggler after the harvest", 0, harvestNeed, 0)
	s.open(8)
	at(7, 6)
	at(7, 7)
	wantSlot(t, s, "stragglers of 7 after 8 opened", 8, 0, 0)
	for j := rt.ProcID(1); j < harvestNeed; j++ {
		at(8, j)
	}
	wantSlot(t, s, "ordinal 8, one short", 8, harvestNeed-1, 0)
	at(8, 6) // peer 6 may still answer 8, its reply to 7 never counted
	wantSlot(t, s, "ordinal 8 complete", 8, harvestNeed, 1)
}

// TestStragglerCannotFillTheNextCall: the same, through communicate, with
// one server held back. Peer 6's reply to call 1 arrives while call 2 is
// collecting; call 2 must still wait for need replies of its own.
func TestStragglerCannotFillTheNextCall(t *testing.T) {
	st := newStage(t, 1, nil)
	s := &st.c.slot

	done := st.collect()
	first := st.wave(1, 2, 3, 4, 5, 6) // quorum−1 plus two spares, to the right
	for j := rt.ProcID(1); j <= harvestNeed; j++ {
		answer(j, first[j])
	}
	distinctQuorum(t, st.result(done).views, harvestN, 0)
	wantSlot(t, s, "after the first call", 0, harvestNeed, 0)

	done = st.collect()
	second := st.wave(1, 2, 3, 4, 5, 6)
	if first[6].call == second[6].call {
		t.Fatalf("two calls share ordinal %d", first[6].call)
	}
	answer(5, first[5])
	answer(6, first[6])
	for j := rt.ProcID(1); j < harvestNeed; j++ {
		answer(j, second[j])
	}
	wantSlot(t, s, "call 2 with need−1 replies and two stragglers of call 1", second[1].call, harvestNeed-1, 0)
	select {
	case r := <-done:
		t.Fatalf("call 2 returned %d views on %d replies of its own", len(r.views), harvestNeed-1)
	case <-time.After(20 * time.Millisecond):
	}
	answer(6, second[6])
	views := st.result(done).views
	distinctQuorum(t, views, harvestN, 0)
	if last := views[len(views)-1].From; last != 6 {
		t.Fatalf("call 2's last view is from %d, want 6 — answering call 2", last)
	}
	answer(5, second[5]) // past the quorum, after the harvest
	wantSlot(t, s, "after the second call", 0, harvestNeed, 0)
}

// TestRepeatAnswerAfterWidenCountsOnce: a first wave that comes up short
// widens on the tick, which asks the silent peers of the wave a second
// time; a peer that then answers both requests is one quorum member.
func TestRepeatAnswerAfterWidenCountsOnce(t *testing.T) {
	st := newStage(t, 1, nil)
	s := &st.c.slot
	done := st.collect()
	first := st.wave(1, 2, 3, 4, 5, 6)
	answer(1, first[1])
	answer(2, first[2])
	again := st.wave(3, 4, 5, 6, 7, 8) // rt.WidenAfter later: everyone who has not answered
	if !st.c.sched.Wide() {
		t.Fatal("the second wave was not the widen")
	}
	answer(4, first[4])
	answer(4, again[4])
	wantSlot(t, s, "peer 4 answered both its requests", first[4].call, 3, 0)
	answer(8, again[8])
	distinctQuorum(t, st.result(done).views, harvestN, 0)
	answer(3, first[3])
	answer(3, again[3])
	wantSlot(t, s, "after the widened call", 0, harvestNeed, 0)
}

// TestSlotOneSignalPerCallUnderLoad: ≥ 2 000 back-to-back calls against
// real servers that all answer, at GOMAXPROCS ≥ 4. Every call returns on
// exactly quorum−1 distinct peers — a second token for some ordinal would
// let a later call return early — the one-slot channel is empty after each
// harvest, and no server ever blocks delivering: the system quiesces.
func TestSlotOneSignalPerCallUnderLoad(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const n, calls = 32, 2400
	sys := NewSystem(n, 1)
	defer sys.Shutdown()
	c := NewComm(sys.Proc(3), nil)
	s := &c.slot
	for i := 1; i <= calls; i++ {
		if i%3 == 0 {
			c.Propagate("r", i)
			if len(s.replies) != s.need {
				t.Fatalf("call %d returned on %d replies, want %d", i, len(s.replies), s.need)
			}
		} else {
			distinctQuorum(t, c.Collect("r"), n, 3)
		}
		if call, _, signals := slotState(s); call != 0 || signals != 0 {
			t.Fatalf("after call %d the slot is open for %d with %d signals pending", i, call, signals)
		}
	}
	quiet := make(chan struct{})
	go func() {
		sys.quiesce()
		close(quiet)
	}()
	select {
	case <-quiet:
	case <-time.After(harvestWait):
		t.Fatal("a server is still busy after the last call: blocked on the slot?")
	}
	wantSlot(t, s, "once the stragglers have all been refused", 0, s.need, 0)
	if c.sched.Wide() {
		t.Fatal("a call widened on a fault-free system")
	}
}

// TestReplyLossSampledAtDelivery: under the flaky and flaky-asym plans each
// reply that would otherwise count draws once from the caller's reply-loss
// stream and nothing else does — a twin profile, built from a twin of the
// caller's fault stream, predicts every delivery's fate and stays in step to
// the end. Exactly need peers ever answer, one of
// them over a lossy link, so a call whose reply the plan eats can complete
// only by asking that sender again on the tick and counting its second
// answer.
func TestReplyLossSampledAtDelivery(t *testing.T) {
	for _, sc := range []fault.Scenario{fault.Flaky(), fault.FlakyAsym()} {
		t.Run(sc.Name, func(t *testing.T) {
			// A seed whose plan loses replies on some link into caller 0.
			var plan *fault.Plan
			seed, lossy := int64(0), rt.ProcID(-1)
			for lossy < 0 {
				seed++
				var err error
				if plan, err = sc.Plan(harvestN, seed); err != nil {
					t.Fatal(err)
				}
				for j := 1; j < harvestN; j++ {
					if plan.DropProb(j, 0) > 0 {
						lossy = rt.ProcID(j)
						break
					}
				}
			}
			st := newStage(t, seed, plan)
			s := &st.c.slot
			twin := plan.Profile(0, rand.New(rand.NewSource(seed^faultStreamSalt)), func() time.Duration { return 0 }, nil, nil)
			answering := []rt.ProcID{lossy}
			for j := rt.ProcID(1); len(answering) < harvestNeed; j++ {
				if j != lossy {
					answering = append(answering, j)
				}
			}

			lost, recounted := 0, 0
			for call := 1; call <= 20; call++ {
				done := st.collect()
				dropped := make(map[rt.ProcID]bool)
				for counted := 0; counted < harvestNeed; {
					a := st.next()
					if !slices.Contains(answering, a.j) {
						continue // a silent peer: the request is lost on it
					}
					s.mu.Lock()
					counts := s.call == a.req.call && !s.seen[a.j]
					s.mu.Unlock()
					if !counts {
						// A second request the tick sent before the first was
						// answered, or one of a call since harvested: its reply
						// is a straggler and must draw nothing.
						answer(a.j, a.req)
						continue
					}
					drop := twin.ReplyDrop(int(a.j))
					answer(a.j, a.req)
					s.mu.Lock()
					kept := s.seen[a.j]
					s.mu.Unlock()
					if kept == drop {
						t.Fatalf("call %d: peer %d's reply kept=%v where the caller's loss stream says drop=%v", call, a.j, kept, drop)
					}
					switch {
					case drop:
						lost++
						dropped[a.j] = true
					case dropped[a.j]:
						recounted++
						fallthrough
					default:
						counted++
					}
				}
				distinctQuorum(t, st.result(done).views, harvestN, 0)
			}
			if lost == 0 || recounted == 0 {
				t.Fatalf("20 calls lost %d replies and recounted %d senders; the plan was to lose some", lost, recounted)
			}
			// Stragglers draw nothing: a late answer to the last call finds the
			// slot closed, and the two streams go on drawing alike.
			s.deliver(20, reply{from: lossy})
			for range 64 {
				if s.lose(int(lossy)) != twin.ReplyDrop(int(lossy)) {
					t.Fatalf("after %d lost replies the slot's loss stream is out of step with its twin", lost)
				}
			}
			t.Logf("seed %d, lossy link %d→0: %d replies lost, %d senders counted on a later answer", seed, lossy, lost, recounted)
		})
	}
}

// TestNoQuorumAbortBlocksNobody: a call aborted by the no-quorum signal
// leaves its slot behind, and the replies that still arrive — the one that
// completes the quorum among them — are delivered without blocking.
func TestNoQuorumAbortBlocksNobody(t *testing.T) {
	st := newStage(t, 1, nil)
	noq := make(chan struct{})
	st.c = NewComm(st.sys.Proc(0), &fault.Profile{NoQuorum: noq})
	done := st.collect()
	first := st.wave(1, 2, 3, 4, 5, 6)
	for j := rt.ProcID(1); j < harvestNeed; j++ {
		answer(j, first[j])
	}
	close(noq)
	var starved *fault.NoQuorumError
	if r := st.result(done); !errors.As(r.err, &starved) || starved.Proc != 0 {
		t.Fatalf("the starved call returned %d views and %v, want a NoQuorumError for processor 0", len(r.views), r.err)
	}
	late := make(chan struct{})
	go func() {
		for j := rt.ProcID(harvestNeed); j <= 6; j++ {
			answer(j, first[j])
			answer(j, first[j])
		}
		close(late)
	}()
	select {
	case <-late:
	case <-time.After(harvestWait):
		t.Fatal("a server blocked delivering to an aborted call's slot")
	}
}
