package live

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/regstore"
	"repro/internal/rt"
)

// The one-wake-up harvest on the chan substrate: the servers deliver a
// call's replies to the caller's tally and the completing delivery wakes
// the waiting communicate exactly once (see Comm.deliver, and rt.Tally,
// whose own table test holds the counting rules) — the counterpart of
// internal/electd/harvest_test.go. Most tests below play the
// servers themselves, on a system built without server goroutines, so every
// reply a call sees is one the test delivered, in the order it chose.

const (
	harvestN    = 9            // quorum 5, need 4; a first wave asks peers 1…4 of caller 0
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
	t     *testing.T
	sys   *System
	c     *Comm
	in    chan arrival
	calls sync.WaitGroup // collects still running
}

func newStage(t *testing.T, seed int64, plan *fault.Plan) *stage {
	t.Helper()
	sys := newSystem(harvestN, seed, plan, false)
	for _, p := range sys.procs { // the chan substrate a networked system goes without
		p.inbox, p.regs = make(chan request, harvestN), regstore.New(nil)
	}
	st := &stage{t: t, sys: sys, c: NewComm(sys.Proc(0), sys.profile(0)), in: make(chan arrival)}
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
		// A test that failed may leave a call running, and closing the
		// mailboxes under its sends would panic: leave them open then.
		returned := make(chan struct{})
		go func() {
			st.calls.Wait()
			close(returned)
		}()
		select {
		case <-returned:
			sys.Shutdown()
		case <-time.After(harvestWait):
		}
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
	req.to.deliver(req.call, reply{from: j, view: rt.View{From: j}})
}

// collect runs one Collect on the stage's handle in its own goroutine and
// reports the views, or the error it unwound with.
type collected struct {
	views []rt.View
	err   error
}

func (st *stage) collect() <-chan collected {
	done := make(chan collected, 1)
	st.calls.Add(1)
	go func() {
		defer st.calls.Done()
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

// tallyState reads c's tally as a server would find it, under the handle's
// lock: the call it is open for, the replies it counted and the tokens
// waiting. rt.Tally keeps its fields to itself; the test reads them by
// reflection.
func tallyState(c *Comm) (call uint64, replies, tokens int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := reflect.ValueOf(&c.tally).Elem()
	return v.FieldByName("call").Uint(), len(c.tally.Replies()), v.FieldByName("sig").Len()
}

func wantTally(t *testing.T, c *Comm, when string, call uint64, replies, tokens int) {
	t.Helper()
	if o, r, k := tallyState(c); o != call || r != replies || k != tokens {
		t.Fatalf("%s: tally open for %d with %d replies and %d tokens, want %d, %d and %d", when, o, r, k, call, replies, tokens)
	}
}

// answered reports whether c's tally has counted peer j for the call it is
// open for, under the handle's lock.
func answered(c *Comm, j rt.ProcID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return reflect.ValueOf(&c.tally).Elem().FieldByName("seen").Index(int(j)).Bool()
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

// TestStragglerCannotFillTheNextCall: the same, through communicate, with
// one server held back. A first wave is exactly the quorum, so stragglers
// come from a widen: call 1's peer 4 is silent, the tick asks peers 4…8 and
// peer 5 completes the quorum. Peer 4's and peer 6's replies to call 1 then
// arrive while call 2 — the probe after the widen, to every peer — is
// collecting, and call 2 must still wait for need replies of its own.
func TestStragglerCannotFillTheNextCall(t *testing.T) {
	st := newStage(t, 1, nil)

	done := st.collect()
	first := st.wave(1, 2, 3, 4) // quorum−1, to the right
	for j := rt.ProcID(1); j < harvestNeed; j++ {
		answer(j, first[j])
	}
	again := st.wave(4, 5, 6, 7, 8) // the widen: everyone who has not answered
	answer(5, again[5])
	distinctQuorum(t, st.result(done).views, harvestN, 0)
	// Complete, the tally stays open for the call and refuses every reply.
	wantTally(t, st.c, "after the first call", first[1].call, harvestNeed, 0)

	done = st.collect()
	second := st.wave(1, 2, 3, 4, 5, 6, 7, 8)
	if first[4].call == second[5].call {
		t.Fatalf("two calls share ordinal %d", first[4].call)
	}
	answer(4, first[4])
	answer(4, again[4])
	answer(6, again[6])
	for j := rt.ProcID(1); j < harvestNeed; j++ {
		answer(j, second[j])
	}
	wantTally(t, st.c, "call 2 with need−1 replies and three stragglers of call 1", second[1].call, harvestNeed-1, 0)
	select {
	case r := <-done:
		t.Fatalf("call 2 returned %d views on %d replies of its own", len(r.views), harvestNeed-1)
	case <-time.After(20 * time.Millisecond):
	}
	answer(5, second[5])
	views := st.result(done).views
	distinctQuorum(t, views, harvestN, 0)
	if last := views[len(views)-1].From; last != 5 {
		t.Fatalf("call 2's last view is from %d, want 5 — answering call 2", last)
	}
	answer(7, again[7])  // a straggler of call 1, after call 2's harvest
	answer(6, second[6]) // and one of call 2, past its quorum
	wantTally(t, st.c, "after the second call", second[1].call, harvestNeed, 0)
}

// TestRepeatAnswerAfterWidenCountsOnce: a first wave that comes up short
// widens on the tick, which asks the silent peers of the wave a second
// time; a peer that then answers both requests is one quorum member.
func TestRepeatAnswerAfterWidenCountsOnce(t *testing.T) {
	st := newStage(t, 1, nil)
	done := st.collect()
	first := st.wave(1, 2, 3, 4)
	answer(1, first[1])
	answer(2, first[2])
	again := st.wave(3, 4, 5, 6, 7, 8) // rt.WidenAfter later (a cold estimate): everyone who has not answered
	if st.c.sched.Widens() != 1 {
		t.Fatal("the second wave was not the widen")
	}
	answer(4, first[4])
	answer(4, again[4])
	wantTally(t, st.c, "peer 4 answered both its requests", first[4].call, 3, 0)
	answer(8, again[8])
	distinctQuorum(t, st.result(done).views, harvestN, 0)
	answer(3, first[3])
	answer(3, again[3])
	wantTally(t, st.c, "after the widened call", first[4].call, harvestNeed, 0)
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
	sys := newSystem(n, 1, nil, true)
	defer sys.Shutdown()
	c := NewComm(sys.Proc(3), nil)
	for i := 1; i <= calls; i++ {
		if i%3 == 0 {
			c.Propagate("r", i)
			if got := len(c.tally.Replies()); got != n/2 {
				t.Fatalf("call %d returned on %d replies, want %d", i, got, n/2)
			}
		} else {
			distinctQuorum(t, c.Collect("r"), n, 3)
		}
		if call, _, tokens := tallyState(c); call != c.ord || tokens != 0 {
			t.Fatalf("after call %d (ordinal %d) the tally is open for %d with %d tokens pending", i, c.ord, call, tokens)
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
		t.Fatal("a server is still busy after the last call: blocked delivering?")
	}
	wantTally(t, c, "once the stragglers have all been refused", c.ord, n/2, 0)
	if c.sched.Wide() {
		t.Fatal("the handle went wide: chan calls widen on an estimate and stay the size of the quorum")
	}
	t.Logf("%d of %d calls widened on the estimate's tick", c.sched.Widens(), calls)
}

// TestReplyLossSampledAtDelivery: under the flaky and flaky-asym plans each
// reply that would otherwise count draws once from the caller's reply-loss
// stream and nothing else does — a twin profile, built from a twin of the
// caller's fault stream, predicts every delivery's fate and stays in step to
// the end. Exactly need peers answer, one of them over a lossy link, so a
// call whose reply the plan eats completes by asking that sender again on
// the tick and counting its second answer. The other peers stay silent until
// a call asks one of them a third time: then it answers too, so a call
// whose lossy sender loses answer after answer completes all the same, long
// before its backoff could give up (rt.Schedule.Wait).
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
			twin := plan.Profile(0, rand.New(rand.NewSource(seed^faultStreamSalt)), func() time.Duration { return 0 }, nil)
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
				asked := make(map[rt.ProcID]int) // the call's requests to each silent peer
				for counted := 0; counted < harvestNeed; {
					a := st.next()
					call, replies, _ := tallyState(st.c)
					counts := call == a.req.call && replies < harvestNeed && !answered(st.c, a.j)
					if !slices.Contains(answering, a.j) {
						if !counts {
							continue
						}
						if asked[a.j]++; asked[a.j] < 3 {
							continue // a silent peer: the request is lost on it
						}
					}
					if !counts {
						// A second request the tick sent before the first was
						// answered, or one of a call since harvested: its reply
						// is a straggler and must draw nothing.
						answer(a.j, a.req)
						continue
					}
					drop := twin.ReplyDrop(int(a.j))
					answer(a.j, a.req)
					kept := answered(st.c, a.j)
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
			// call complete, and the two streams go on drawing alike.
			st.c.deliver(st.c.ord, reply{from: lossy})
			for range 64 {
				if st.c.fp.ReplyDrop(int(lossy)) != twin.ReplyDrop(int(lossy)) {
					t.Fatalf("after %d lost replies the handle's loss stream is out of step with its twin", lost)
				}
			}
			t.Logf("seed %d, lossy link %d→0: %d replies lost, %d senders counted on a later answer", seed, lossy, lost, recounted)
		})
	}
}

// TestNoQuorumAbortBlocksNobody: a call that gives up — it retransmits
// and the peers it still needs stay silent — closes its tally, and the
// replies that still arrive, the one that would have completed the
// quorum among them, are delivered without blocking. The first wave is
// read off the handle's own sends (the profile's loss hook logs them, in
// order, on the caller's goroutine and drops none), since the 100 µs
// resends can reach any mailbox before the test has taken the wave.
func TestNoQuorumAbortBlocksNobody(t *testing.T) {
	st := newStage(t, 1, nil)
	var sends []rt.ProcID // the caller's; read once the call has returned
	st.c = NewComm(st.sys.Proc(0), &fault.Profile{
		Retransmit: 100 * time.Microsecond,
		Drop: func(to int) bool {
			sends = append(sends, rt.ProcID(to))
			return false
		},
	})
	done := st.collect()
	// Peers 1…need−1 answer the first of the call's requests to reach them;
	// peer need's first is kept for the late answers below, and the resends
	// to everyone else go unanswered.
	answered := make(map[rt.ProcID]bool)
	var last *request
	take := func(a arrival) {
		switch {
		case a.j < harvestNeed && !answered[a.j]:
			answer(a.j, a.req)
			answered[a.j] = true
		case a.j == harvestNeed && last == nil:
			last = &a.req
		}
	}
	var r collected
wait:
	for {
		select {
		case r = <-done:
			break wait
		case a := <-st.in:
			take(a)
		case <-time.After(harvestWait):
			t.Fatal("a call no quorum answers never gave up")
		}
	}
	var starved *fault.NoQuorumError
	if !errors.As(r.err, &starved) || starved.Proc != 0 {
		t.Fatalf("the starved call returned %d views and %v, want a NoQuorumError for processor 0", len(r.views), r.err)
	}
	if first := slices.Sorted(slices.Values(sends[:harvestNeed])); !slices.Equal(first, []rt.ProcID{1, 2, 3, 4}) {
		t.Fatalf("the first wave asked %v, want one each for [1 2 3 4]", sends[:harvestNeed])
	}
	for last == nil {
		take(st.next())
	}
	late := make(chan struct{})
	go func() {
		answer(harvestNeed, *last)
		answer(harvestNeed, *last)
		close(late)
	}()
	select {
	case <-late:
	case <-time.After(harvestWait):
		t.Fatal("a server blocked delivering to an aborted call's handle")
	}
}
