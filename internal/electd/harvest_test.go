package electd

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The one-wake-up harvest: Pool.handle counts a call's replies on its
// pending slot's tally and wakes the waiting rpc exactly once (rt.Tally,
// whose own table test holds the counting rules). The tests below
// are the only router — the pool's servers never answer — so every reply a
// call sees is one the test handed to Pool.handle, in the order it chose.

const harvestN = 5 // quorum 3; a client starts wide, so no tick is armed

// silentPool dials a pool over n loopback listeners that swallow every
// request.
func silentPool(t *testing.T, n int) *Pool {
	t.Helper()
	nw := transport.NewLoopback()
	addrs := make([]string, n)
	for j := range addrs {
		ln, err := nw.Listen(func(transport.Conn, *wire.Msg) {})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() }) //nolint:errcheck // teardown
		addrs[j] = ln.Addr()
	}
	pl, err := DialPoolOpts(nw, addrs, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.Close() }) //nolint:errcheck // teardown
	return pl
}

// park registers a call for c the way rpc does and returns its slot.
func park(pl *Pool, c *Client) (*pending, uint64) {
	call := pl.next.Add(1)
	p := pl.pend.Get().(*pending)
	p.cli = c
	sh := pl.callShardOf(call)
	sh.mu.Lock()
	p.tally.Open(&sh.mu, call, nil)
	sh.calls[call] = p
	sh.mu.Unlock()
	return p, call
}

// tally reads p's tally by reflection, rt.Tally keeping its fields to
// itself: tokens is the number of wake-ups waiting on it, answered whether
// it has counted server j, open the call it is open for. The caller holds
// p's shard lock, or is the only router.
func tally(p *pending) reflect.Value { return reflect.ValueOf(&p.tally).Elem() }

func tokens(p *pending) int { return tally(p).FieldByName("sig").Len() }

func answered(p *pending, j rt.ProcID) bool { return tally(p).FieldByName("seen").Index(int(j)).Bool() }

func open(p *pending) uint64 { return tally(p).FieldByName("call").Uint() }

// parked polls until a call is registered on the pool and returns its ID —
// the call a goroutine the test started is now waiting in.
func parked(t *testing.T, pl *Pool) uint64 {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		call := pl.next.Load()
		sh := pl.callShardOf(call)
		sh.mu.Lock()
		p := sh.calls[call]
		sh.mu.Unlock()
		if p != nil {
			return call
		}
		if time.Now().After(deadline) {
			t.Fatal("no call was registered")
		}
	}
}

// route hands the pool one reply, as a connection's read loop would, and
// returns the message so the test can tell what became of it.
func route(pl *Pool, kind wire.Kind, call uint64, from rt.ProcID) *wire.Msg {
	m := wire.GetMsg()
	m.Kind, m.Call, m.From = kind, call, from
	pl.handle(nil, m)
	return m
}

// recycled reports whether the router disposed of m: RecycleMsg zeroes the
// message on its way to the pool, and nothing else in these tests draws on
// the pool before the check.
func recycled(m *wire.Msg) bool { return m.Kind == 0 && m.Call == 0 }

// TestHarvestSignalsOnce: the need-th distinct reply — not an earlier one,
// not a duplicate, not one from a sender that is no server — puts exactly
// one signal on the slot; every reply after it is recycled, not appended,
// and sends no second signal, a late busy reply included.
func TestHarvestSignalsOnce(t *testing.T) {
	pl := silentPool(t, harvestN)
	c := pl.NewComm(NewParticipant(0, harvestN, 1), 1, nil)
	need := c.QuorumSize()
	p, call := park(pl, c)

	state := func(when string, replies, signals int) {
		t.Helper()
		if got := len(p.tally.Replies()); got != replies || tokens(p) != signals {
			t.Fatalf("%s: slot holds %d replies and %d signals, want %d and %d", when, got, tokens(p), replies, signals)
		}
	}
	kept := []*wire.Msg{route(pl, wire.KindView, call, 0), route(pl, wire.KindView, call, 1)}
	state("two of three replies", 2, 0)
	if m := route(pl, wire.KindView, call, 1); !recycled(m) {
		t.Fatal("a duplicate reply from server 1 was kept")
	}
	for _, from := range []rt.ProcID{-1, harvestN, 1 << 20} {
		if m := route(pl, wire.KindView, call, from); !recycled(m) {
			t.Fatalf("a reply claiming sender %d was kept", from)
		}
	}
	if m := route(pl, wire.KindView, call+callShards, 2); !recycled(m) {
		t.Fatal("a reply to a call nobody made was kept")
	}
	state("after a duplicate, three forged senders and a stray call", 2, 0)

	kept = append(kept, route(pl, wire.KindView, call, 2))
	state("the quorum's last reply", need, 1)
	for _, m := range []*wire.Msg{route(pl, wire.KindView, call, 3), route(pl, wire.KindBusy, call, 4)} {
		if !recycled(m) {
			t.Fatal("a reply past the quorum was kept")
		}
	}
	state("after two replies past the quorum", need, 1)
	if p.tally.Aborted() {
		t.Fatal("a busy reply after the quorum marked the call shed")
	}
	if !slices.Equal(p.tally.Replies(), kept) {
		t.Fatalf("slot holds %v, want the first %d distinct replies in arrival order", p.tally.Replies(), need)
	}
	if got := c.Messages(); got != 0 {
		t.Fatalf("the router counted %d messages; rpc counts what it harvests", got)
	}
}

// TestHarvestBusyBeforeQuorum: a busy reply inside the quorum wait
// completes the call on the spot — one signal — and what follows it is a
// straggler, so a late quorum cannot un-shed the call or signal again.
func TestHarvestBusyBeforeQuorum(t *testing.T) {
	pl := silentPool(t, harvestN)
	c := pl.NewComm(NewParticipant(0, harvestN, 1), 1, nil)
	p, call := park(pl, c)
	route(pl, wire.KindView, call, 0)
	if m := route(pl, wire.KindBusy, call, 1); !recycled(m) || !p.tally.Aborted() || tokens(p) != 1 {
		t.Fatalf("busy reply: recycled=%v, slot busy=%v with %d signals, want true, true and 1", recycled(m), p.tally.Aborted(), tokens(p))
	}
	for from := rt.ProcID(2); from < harvestN; from++ {
		if m := route(pl, wire.KindView, call, from); !recycled(m) {
			t.Fatalf("server %d's reply to a shed call was kept", from)
		}
	}
	if len(p.tally.Replies()) != 1 || tokens(p) != 1 {
		t.Fatalf("after the stragglers the slot holds %d replies and %d signals, want 1 and 1", len(p.tally.Replies()), tokens(p))
	}
}

// TestHarvestThroughRPC drives the real wait loop: a collect parked in rpc
// returns exactly the quorum the router assembled, counts exactly the
// requests it sent plus the replies it harvested, and leaves no call, no
// signal and no reply behind for the slot's next user. A busy reply sheds
// the call only when it beats the quorum.
func TestHarvestThroughRPC(t *testing.T) {
	pl := silentPool(t, harvestN)
	c := pl.NewComm(NewParticipant(0, harvestN, 1), 1, nil)
	need := c.QuorumSize()
	type result struct {
		views []rt.View
		err   error
	}
	collect := func() <-chan result {
		done := make(chan result, 1)
		go func() {
			var r result
			r.err = CatchBusy(func() { r.views = c.Collect("r") })
			done <- r
		}()
		return done
	}
	idle := func(when string) {
		t.Helper()
		if n := pl.pendingCalls(); n != 0 {
			t.Fatalf("%s: %d calls still pending", when, n)
		}
		p := pl.pend.Get().(*pending)
		defer pl.pend.Put(p)
		seen := false
		for j := range rt.ProcID(harvestN) {
			seen = seen || answered(p, j)
		}
		if tokens(p) != 0 || len(p.tally.Replies()) != 0 || p.tally.Aborted() || p.cli != nil || seen || open(p) != 0 {
			t.Fatalf("%s: a recycled slot carries state over: %d signals, %d replies, busy=%v, seen=%v, open for %d",
				when, tokens(p), len(p.tally.Replies()), p.tally.Aborted(), seen, open(p))
		}
	}

	// Quorum first, busy after: every server answers, server 4 busy.
	done := collect()
	call := parked(t, pl)
	for from := rt.ProcID(0); from < harvestN-1; from++ {
		route(pl, wire.KindView, call, from)
	}
	route(pl, wire.KindBusy, call, harvestN-1)
	r := <-done
	if r.err != nil || len(r.views) != need {
		t.Fatalf("collect returned %d views and %v, want %d and no error", len(r.views), r.err, need)
	}
	for i, v := range r.views {
		if v.From != rt.ProcID(i) {
			t.Fatalf("view %d is from server %d, want the first %d answers in order", i, v.From, need)
		}
	}
	if got, want := c.Messages(), int64(harvestN+need); got != want {
		t.Fatalf("client counted %d messages, want %d requests + %d harvested replies", got, harvestN, need)
	}
	idle("after a completed collect")

	// Busy first: the call is shed although a quorum follows.
	done = collect()
	call = parked(t, pl)
	route(pl, wire.KindView, call, 0)
	route(pl, wire.KindBusy, call, 1)
	for from := rt.ProcID(2); from < harvestN; from++ {
		route(pl, wire.KindView, call, from)
	}
	var busy *BusyError
	if r = <-done; !errors.As(r.err, &busy) {
		t.Fatalf("collect with a busy reply inside the quorum wait returned %v, want a BusyError", r.err)
	}
	if got, want := c.Messages(), int64(2*harvestN+need+1); got != want {
		t.Fatalf("client counted %d messages after the shed call, want %d (its %d requests and the one view harvested)", got, want, harvestN)
	}
	if pl.busy.Load() != 1 {
		t.Fatalf("pool counted %d shed calls, want 1", pl.busy.Load())
	}
	idle("after a shed collect")
}

// TestCollectViewsOutliveStragglers: the views a collect hands back stay
// as they were while the call's stragglers reach the router and die there,
// and until the participant's next call.
func TestCollectViewsOutliveStragglers(t *testing.T) {
	cl := newThriftyCluster(t, transport.NewLoopback(), harvestN)
	c := cl.NewComm(NewParticipant(0, harvestN, 1), 1, nil)
	c.Propagate("r", 41)
	served(t, cl, harvestN)
	views := c.Collect("r")
	type view struct {
		from rt.ProcID
		val  rt.Value
	}
	var want []view
	for _, v := range views {
		if len(v.Entries) != 1 {
			t.Fatalf("server %d's view holds %d entries, want the one propagated", v.From, len(v.Entries))
		}
		want = append(want, view{v.From, v.Entries[0].Val})
	}
	if len(want) != c.QuorumSize() {
		t.Fatalf("collect returned %d views, want %d", len(want), c.QuorumSize())
	}
	served(t, cl, 2*harvestN) // every server has answered: the stragglers are on their way or gone
	c2 := cl.NewComm(NewParticipant(1, harvestN, 2), 1, nil)
	c2.Propagate("r", 42) // another participant's traffic recycles through the same pools
	c2.Collect("r")
	for i, v := range views {
		if v.From != want[i].from || len(v.Entries) != 1 || v.Entries[0].Val != want[i].val {
			t.Fatalf("view %d changed under the stragglers: from %d entries %+v, want from %d value %v", i, v.From, v.Entries, want[i].from, want[i].val)
		}
	}
	if got, want := c.Messages(), int64(2*(harvestN+c.QuorumSize())); got != want {
		t.Fatalf("client counted %d messages over two calls, want %d: replies past the quorum are not counted", got, want)
	}
}

// replyStage is a pool over harvestN Loopback listeners that the test
// answers for: each request a server reads is queued for the test and the
// server's read loop goes on; the test replies later, when it chooses,
// through the connection the request came on, and each reply the pool reads
// is announced on routed once Pool.handle returned. A handler that waited
// for the test instead would deadlock it whenever two requests to one
// server travel as one batch frame: the replies a handler sends while its
// connection dispatches an inbound batch are held until the whole batch is
// dispatched (transport's reply coalescer), so the test would wait for ever
// for the one it sent to be routed. Replying after the handler returned,
// which a server must not do, costs a stage at worst a reply that rides the
// connection's next batch — which comes at once, since no handler blocks.
type replyStage struct {
	t      *testing.T
	pl     *Pool
	in     chan request
	routed chan struct{}
}

// request is one request a server read, and the connection it came on,
// which carries the replies to it.
type request struct {
	j rt.ProcID
	m wire.Msg
	c transport.Conn
}

// replyNetwork announces each reply once the pool's handler is done with it.
type replyNetwork struct {
	transport.Network
	routed chan struct{}
}

func (r *replyNetwork) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	return r.Network.Dial(addr, func(c transport.Conn, m *wire.Msg) {
		h(c, m)
		r.routed <- struct{}{}
	})
}

func newReplyStage(t *testing.T) *replyStage {
	t.Helper()
	// A test's 20 calls put well under 1 024 requests on their way — a few
	// waves of harvestN each — so a handler never waits for room.
	st := &replyStage{t: t, in: make(chan request, 1024), routed: make(chan struct{})}
	nw := &replyNetwork{Network: transport.NewLoopback(), routed: st.routed}
	addrs := make([]string, harvestN)
	for j := range addrs {
		id := rt.ProcID(j)
		ln, err := nw.Listen(func(c transport.Conn, m *wire.Msg) {
			st.in <- request{j: id, m: *m, c: c}
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[j] = ln.Addr()
		t.Cleanup(func() { ln.Close() }) //nolint:errcheck // teardown
	}
	pl, err := DialPoolOpts(nw, addrs, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.pl = pl
	t.Cleanup(func() { pl.Close() }) //nolint:errcheck // teardown
	return st
}

// next is the next request any server read.
func (st *replyStage) next() request {
	st.t.Helper()
	select {
	case r := <-st.in:
		return r
	case <-time.After(10 * time.Second):
		st.t.Fatal("no request reached a server")
		panic("unreachable")
	}
}

// reply sends one reply to r as sender from and waits until the router is
// done with it.
func (st *replyStage) reply(r request, from rt.ProcID) {
	st.t.Helper()
	r.c.Send(&wire.Msg{Kind: wire.KindView, Election: r.m.Election, Call: r.m.Call, From: from, Reg: r.m.Reg}) //nolint:errcheck // a stream
	select {
	case <-st.routed:
	case <-time.After(10 * time.Second):
		st.t.Fatal("a reply never reached the router")
	}
}

// counts reports whether server j's reply to call would count: the call is
// pending, incomplete, and has no answer from j yet.
func (st *replyStage) counts(call uint64, j rt.ProcID) bool {
	sh := st.pl.callShardOf(call)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.calls[call]
	return p != nil && !p.tally.Aborted() && len(p.tally.Replies()) < st.pl.n/2+1 && !answered(p, j)
}

// TestReplyLossSampledAtRouter is the electd twin of the chan substrate's
// TestReplyLossSampledAtDelivery: under the flaky and flaky-asym plans each
// reply that would otherwise count draws once from the client's reply-loss
// stream, and nothing else does — a twin profile, built from a twin of the
// client's fault stream, predicts every reply's fate and stays in step to
// the end. Every counting reply is preceded by one from a sender outside
// [0, n) and, when it counts, followed by a duplicate; stragglers are
// answered too; none of them draws. Exactly a quorum of servers answer,
// one of them over a lossy link, so a call whose reply the plan eats
// completes by asking that server again on the tick and counting its
// second answer. The others stay silent until a call asks one of them a
// third time.
func TestReplyLossSampledAtRouter(t *testing.T) {
	const need = harvestN/2 + 1
	for _, sc := range []fault.Scenario{fault.Flaky(), fault.FlakyAsym()} {
		t.Run(sc.Name, func(t *testing.T) {
			// A seed whose plan loses replies on some link into client 0.
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
			clock := func() time.Duration { return 0 }
			fp := plan.Profile(0, rand.New(rand.NewSource(seed)), clock, nil)
			twin := plan.Profile(0, rand.New(rand.NewSource(seed)), clock, nil)
			st := newReplyStage(t)
			c := st.pl.NewComm(NewParticipant(0, harvestN, seed), 1, fp)
			defer c.Leave()
			answering := []rt.ProcID{lossy}
			for j := rt.ProcID(0); len(answering) < need; j++ {
				if j != lossy {
					answering = append(answering, j)
				}
			}

			lost, recounted := 0, 0
			for call := 1; call <= 20; call++ {
				done := make(chan []rt.View, 1)
				go func() { done <- slices.Clone(c.Collect("r")) }()
				dropped := make(map[rt.ProcID]bool)
				asked := make(map[rt.ProcID]int) // the call's requests to each silent server
				for counted := 0; counted < need; {
					r := st.next()
					counts := st.counts(r.m.Call, r.j)
					if !slices.Contains(answering, r.j) {
						if !counts {
							continue
						}
						if asked[r.j]++; asked[r.j] < 3 {
							continue // a silent server: the request is lost on it
						}
					}
					st.reply(r, harvestN) // no server: draws nothing
					if !counts {
						// A resend the tick sent before the first was answered,
						// or a request of a call since harvested: its reply is
						// a straggler or a duplicate and must draw nothing.
						st.reply(r, r.j)
						continue
					}
					drop := twin.ReplyDrop(int(r.j))
					st.reply(r, r.j)
					if kept := !st.counts(r.m.Call, r.j); kept == drop {
						t.Fatalf("call %d: server %d's reply kept=%v where the client's loss stream says drop=%v", call, r.j, kept, drop)
					}
					if !drop {
						st.reply(r, r.j) // a duplicate, or a straggler: draws nothing
					}
					switch {
					case drop:
						lost++
						dropped[r.j] = true
					case dropped[r.j]:
						recounted++
						fallthrough
					default:
						counted++
					}
				}
				var views []rt.View
				select {
				case views = <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("call %d never returned", call)
				}
				seen := make([]bool, harvestN)
				for _, v := range views {
					if seen[v.From] {
						t.Fatalf("call %d counted server %d twice: %+v", call, v.From, views)
					}
					seen[v.From] = true
				}
				if len(views) != need {
					t.Fatalf("call %d returned %d views, want %d", call, len(views), need)
				}
			}
			if lost == 0 || recounted == 0 {
				t.Fatalf("20 calls lost %d replies and recounted %d senders; the plan was to lose some", lost, recounted)
			}
			for range 256 {
				if fp.ReplyDrop(int(lossy)) != twin.ReplyDrop(int(lossy)) {
					t.Fatalf("after %d lost replies the client's loss stream is out of step with its twin", lost)
				}
			}
			t.Logf("seed %d, lossy link %d→0: %d replies lost, %d senders counted on a later answer", seed, lossy, lost, recounted)
		})
	}
}
