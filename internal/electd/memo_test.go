package electd_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/fault"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// unfiltered is a Network whose dialed connections hide SetFilter, so the
// pool's pre-decode straggler filter is never installed and every reply —
// the ones beyond the quorum too — is decoded and reaches Pool.handle. It
// also reports each view's sender once the pool's handler has returned,
// which is how the test orders a busy reply or a starvation verdict after
// a view already sits on the call's pending slot.
type unfiltered struct {
	transport.Network
	routed chan rt.ProcID
}

func (u *unfiltered) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	c, err := u.Network.Dial(addr, func(c transport.Conn, m *wire.Msg) {
		kind, from := m.Kind, m.From
		h(c, m)
		if kind == wire.KindView {
			u.routed <- from
		}
	})
	return struct{ transport.Conn }{c}, err
}

// TestRecycleNeverClearsSharedEntries drives a view-memo hit down every
// client path that discards a reply — stragglers past the quorum (dropped
// by the router, whether the call is complete or gone), the harvested views
// when a busy reply sheds the call, and when a fault plan declares the
// client starved — while the test holds the memo's array through an
// earlier Collect, as a participant would. None of those paths may clear a
// memoized array or keep it as a decode arena (a view is discarded with
// PutMsg, never RecycleMsg): the held view must read the same afterwards,
// with propagates (whose decode is what would reuse an arena) interleaved
// throughout.
func TestRecycleNeverClearsSharedEntries(t *testing.T) {
	const n, election, reg = 3, 1, "sift/1/status"
	nw := &unfiltered{Network: transport.NewLoopback(), routed: make(chan rt.ProcID, 1024)}
	entries := []rt.Entry{
		{Reg: reg, Owner: 0, Seq: 3, Val: core.Status{Stat: core.LowPri, List: []rt.ProcID{0, 1, 2}}},
		{Reg: reg, Owner: 1, Seq: 1, Val: core.Status{Stat: core.HighPri, List: []rt.ProcID{1}}},
		{Reg: reg, Owner: 2, Seq: 2, Val: 300},
	}
	// collectReply scripts how server j answers a collect; nil answers the
	// view. Propagates are always acknowledged.
	var collectReply atomic.Pointer[func(j rt.ProcID) (wire.Kind, bool)]
	addrs := make([]string, n)
	for j := range addrs {
		id := rt.ProcID(j)
		ln, err := nw.Listen(func(c transport.Conn, m *wire.Msg) {
			reply := &wire.Msg{Kind: wire.KindAck, Election: m.Election, Call: m.Call, From: id}
			if m.Kind == wire.KindCollect {
				reply.Kind, reply.Reg, reply.Entries = wire.KindView, m.Reg, entries
				if script := collectReply.Load(); script != nil {
					kind, ok := (*script)(id)
					if !ok {
						return
					}
					if kind == wire.KindBusy {
						reply.Kind, reply.Reg, reply.Entries = kind, "", nil
					}
				}
			}
			c.Send(reply) //nolint:errcheck // loopback; a lost reply fails the collect below
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[j] = ln.Addr()
	}
	pool, err := electd.DialPool(nw, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	client := pool.NewComm(electd.NewParticipant(0, n, 1), election, nil)
	want, err := wire.AppendEntries(nil, reg, entries)
	if err != nil {
		t.Fatal(err)
	}
	// held is what a participant keeps across communicate calls: the entry
	// array the first view handed out — the memo's, which every server's
	// view of these bytes is handed from then on.
	var held []rt.Entry
	check := func(phase string) {
		t.Helper()
		if got, err := wire.AppendEntries(nil, reg, held); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the held view changed: %+v (%v)", phase, held, err)
		}
	}
	collect := func(phase string) {
		t.Helper()
		for _, v := range client.Collect(reg) {
			if held == nil {
				held = v.Entries
			} else if &held[0] != &v.Entries[0] {
				t.Fatalf("%s: server %d's view was rebuilt, not a memo hit", phase, v.From)
			}
		}
		client.Propagate("other", 7) // server-side decodes draw on the same message pool
		check(phase)
	}
	// drain waits until every view the unscripted collects so far drew —
	// one per server per collect, stragglers too — has passed the router,
	// and forgets them: a server still working through an old collect would
	// otherwise run the next phase's script on it, and a late straggler
	// would stand in for the view that phase waits for.
	collects := 0
	drain := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); collects > 0; collects-- {
			select {
			case <-nw.routed:
			case <-time.After(time.Until(deadline)):
				t.Fatalf("%d views of earlier collects never reached the router", collects)
			}
		}
	}

	// Warm the memo. The first collect's three views are decoded at once on
	// three connections, and every read loop that misses puts the array it
	// built; once all three have been routed the memo holds one of them,
	// and every later view of these bytes, on any connection, is that one.
	client.Collect(reg)
	collects += n
	drain()

	// Stragglers: all three servers answer, two make the quorum, the third
	// view is decoded (no filter), reaches the router late, and is recycled
	// there.
	for range 20 {
		collect("stragglers")
		collects += n
	}

	// Shed: server 0's view is on the pending slot, then server 1 answers
	// busy; rpc harvests the view, recycles it and unwinds.
	drain()
	shed := func(j rt.ProcID) (wire.Kind, bool) {
		switch j {
		case 0:
			return wire.KindView, true
		case 1:
			for from := range nw.routed {
				if from == 0 {
					break
				}
			}
			return wire.KindBusy, true
		}
		return 0, false
	}
	collectReply.Store(&shed)
	var busy *electd.BusyError
	if err := electd.CatchBusy(func() { client.Collect(reg) }); !errors.As(err, &busy) {
		t.Fatalf("collect with a busy server returned %v, want a BusyError", err)
	}
	check("shed")
	collectReply.Store(nil)
	collect("after shed")
	collects = n

	// Starved: only server 0 answers, and once its view is on the pending
	// slot the plan's verdict fires; rpc harvests the view, recycles it and
	// unwinds.
	drain()
	lonely := func(j rt.ProcID) (wire.Kind, bool) { return wire.KindView, j == 0 }
	collectReply.Store(&lonely)
	verdict := make(chan struct{})
	starving := pool.NewComm(electd.NewParticipant(1, n, 2), election, &fault.Profile{NoQuorum: verdict})
	go func() {
		select {
		case <-nw.routed:
		case <-time.After(10 * time.Second): // the collect below then fails on its own
		}
		close(verdict)
	}()
	func() {
		defer func() {
			if _, ok := recover().(*fault.NoQuorumError); !ok {
				t.Error("a starved collect did not unwind with a NoQuorumError")
			}
		}()
		starving.Collect(reg)
	}()
	check("starved")
	collectReply.Store(nil)
	collect("after starved")
}
