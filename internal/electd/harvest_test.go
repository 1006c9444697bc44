package electd

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The one-wake-up harvest: Pool.handle assembles a call's quorum on its
// pending slot and signals the waiting rpc exactly once. The tests below
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
	pl, err := DialPool(nw, addrs)
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
	sh.calls[call] = p
	sh.mu.Unlock()
	return p, call
}

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
		if len(p.replies) != replies || len(p.sig) != signals {
			t.Fatalf("%s: slot holds %d replies and %d signals, want %d and %d", when, len(p.replies), len(p.sig), replies, signals)
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
	if p.busy {
		t.Fatal("a busy reply after the quorum marked the call shed")
	}
	if !slices.Equal(p.replies, kept) {
		t.Fatalf("slot holds %v, want the first %d distinct replies in arrival order", p.replies, need)
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
	if m := route(pl, wire.KindBusy, call, 1); !recycled(m) || !p.busy || len(p.sig) != 1 {
		t.Fatalf("busy reply: recycled=%v, slot busy=%v with %d signals, want true, true and 1", recycled(m), p.busy, len(p.sig))
	}
	for from := rt.ProcID(2); from < harvestN; from++ {
		if m := route(pl, wire.KindView, call, from); !recycled(m) {
			t.Fatalf("server %d's reply to a shed call was kept", from)
		}
	}
	if len(p.replies) != 1 || len(p.sig) != 1 {
		t.Fatalf("after the stragglers the slot holds %d replies and %d signals, want 1 and 1", len(p.replies), len(p.sig))
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
		if len(p.sig) != 0 || len(p.replies) != 0 || p.busy || p.cli != nil || slices.Contains(p.seen, true) {
			t.Fatalf("%s: a recycled slot carries state over: %d signals, %d replies, busy=%v, seen=%v", when, len(p.sig), len(p.replies), p.busy, p.seen)
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
