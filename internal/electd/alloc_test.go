//go:build !race

package electd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The server's share of the socket path's per-message allocation budget,
// gated in steady state with a stub connection under Handle (no socket, no
// decode: the message arrives as a read loop would deliver it, from wire's
// pool). Run without the race detector, which makes sync.Pool lossy.
const (
	// handlePropagateAllocs: one winning single-entry propagate into an
	// existing register. Measured 0 — the copy of the entry the CAS installs
	// takes a slot of the instance's slab (one 64-entry slab per 64 wins;
	// it was a heap copy each, 1); finding the cell is an index, the ack
	// frame is pooled.
	handlePropagateAllocs = 0
	// handleCollectAllocs: one collect served from the published snapshot.
	// Measured 0 — an atomic load and a pooled reply frame.
	handleCollectAllocs = 0
	// thriftyPropagateAllocs: one client propagate to quorum at n=16 over
	// the in-process network, servers included. Measured 0: the entry copy
	// on each of the quorum+slack = 11 servers asked (16 when the call goes
	// to all n) takes a slab slot, one 64-entry slab per ≈6 calls (it was
	// 11, a heap copy each); nothing for the tick the call arms and stops, the
	// per-connection copies of the request frame (pooled), the send queues
	// or the harvest.
	thriftyPropagateAllocs = 0
	// thriftyCollectAllocs: the same for a collect. Measured 0.
	thriftyCollectAllocs = 0
)

func TestHandleAllocBudget(t *testing.T) {
	const n, reg, election = 32, "leaderelect/sift/3/status", 1
	srv := NewServer(0)
	defer srv.Close() //nolint:errcheck // always nil
	var val rt.Value = core.Status{Stat: core.LowPri, List: []rt.ProcID{0, 1, 2}}
	request := func(kind wire.Kind, i int) *wire.Msg {
		m := wire.GetMsg()
		m.Kind, m.Election, m.Call, m.From, m.Reg = kind, election, uint64(i), rt.ProcID(i%n), reg
		return m
	}
	i := 0
	propagate := func() {
		m := request(wire.KindPropagate, i)
		m.Entries = append(m.Entries[:0], rt.Entry{Reg: reg, Owner: m.From, Seq: uint64(i/n + 1), Val: val})
		srv.Handle(discardConn{}, m)
		i++
	}
	for range n { // every owner's first write, so the run below is steady state
		propagate()
	}
	if got := testing.AllocsPerRun(1000, propagate); got > handlePropagateAllocs {
		t.Fatalf("steady-state propagate: %v allocs, budget %d", got, handlePropagateAllocs)
	}
	collect := func() {
		srv.Handle(discardConn{}, request(wire.KindCollect, i))
		i++
	}
	collect() // rebuilds and publishes the snapshot
	if got := testing.AllocsPerRun(1000, collect); got > handleCollectAllocs {
		t.Fatalf("snapshot-hit collect: %v allocs, budget %d", got, handleCollectAllocs)
	}
}

// TestThriftyCallAllocBudget: a quorum call whose first wave is a subset
// arms a tick on every call; the timer is the client's own, re-armed and
// stopped, so the wait loop costs a steady-state call no allocation. The
// traced case is the flight recorder's overhead contract: with client and
// server spans recording into a preallocated ring, a warm call is held to
// the same constants.
func TestThriftyCallAllocBudget(t *testing.T) {
	t.Run("untraced", func(t *testing.T) { thriftyCallAllocBudget(t, nil) })
	t.Run("traced", func(t *testing.T) { thriftyCallAllocBudget(t, trace.NewRecorder(1<<12)) })
}

func thriftyCallAllocBudget(t *testing.T, rec *trace.Recorder) {
	const n, reg = 16, "leaderelect/sift/3/status"
	cl, err := NewClusterWith(transport.NewLoopback(), n, ClusterOptions{
		Pool: PoolOptions{Trace: rec}, Server: ServerOptions{Trace: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // teardown
	var val rt.Value = core.Status{Stat: core.LowPri, List: []rt.ProcID{0, 1, 2}}
	c := cl.NewComm(NewParticipant(0, n, 1), 1, nil)
	if c.sched.Wide() {
		t.Fatalf("n=%d client starts wide; the test needs a thrifty first wave", n)
	}
	for range 50 { // pools, pending slots, the timer, the servers' cells
		c.Propagate(reg, val)
		c.Collect(reg)
	}
	if got := testing.AllocsPerRun(500, func() { c.Propagate(reg, val) }); got > thriftyPropagateAllocs {
		t.Fatalf("steady-state thrifty propagate: %v allocs, budget %d", got, thriftyPropagateAllocs)
	}
	if got := testing.AllocsPerRun(500, func() { c.Collect(reg) }); got > thriftyCollectAllocs {
		t.Fatalf("steady-state thrifty collect: %v allocs, budget %d", got, thriftyCollectAllocs)
	}
	if cl.Pool().widened.Load() != 0 {
		t.Fatalf("%d calls widened on an idle in-process cluster", cl.Pool().widened.Load())
	}
	if rec != nil && rec.Recorded() == 0 {
		t.Fatal("traced run recorded no span")
	}
}
