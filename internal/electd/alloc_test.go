//go:build !race

package electd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rt"
	"repro/internal/wire"
)

// The server's share of the socket path's per-message allocation budget,
// gated in steady state with a stub connection under Handle (no socket, no
// decode: the message arrives as a read loop would deliver it, from wire's
// pool). Run without the race detector, which makes sync.Pool lossy.
const (
	// handlePropagateAllocs: one winning single-entry propagate into an
	// existing register. Measured 1 — the immutable cellVal box the CAS
	// installs; finding the cell is an index, the ack frame is pooled.
	handlePropagateAllocs = 3
	// handleCollectAllocs: one collect served from the published snapshot.
	// Measured 0 — an atomic load and a pooled reply frame.
	handleCollectAllocs = 1
	// rebuildAllocs: one snapshot rebuild of a 32-cell register array that
	// has a published snapshot to size from — the collect after a winning
	// merge. Measured 3: the entry slice, the encoding and the snapshot
	// box, each allocated once at its final size. Appending both from nil
	// took about 10.
	rebuildAllocs = 3
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

func TestRebuildAllocBudget(t *testing.T) {
	const n, reg = 32, "leaderelect/sift/3/status"
	list := make([]rt.ProcID, n)
	for i := range list {
		list[i] = rt.ProcID(i)
	}
	st := newStore()
	for i := 0; i < n; i++ {
		st.merge(rt.Entry{Reg: reg, Owner: rt.ProcID(i), Seq: 1, Val: core.Status{Stat: core.LowPri, List: list[:n-i]}})
	}
	arr := st.array(reg)
	arr.rebuild(reg, arr.version.Load()) // the first build has nothing to size from
	var snap *snapshot
	got := testing.AllocsPerRun(1000, func() { snap = arr.rebuild(reg, arr.version.Load()) })
	if got > rebuildAllocs {
		t.Fatalf("rebuild of a %d-cell array: %v allocs, budget %d", n, got, rebuildAllocs)
	}
	if len(snap.entries) != n || len(snap.enc) < n {
		t.Fatalf("rebuilt snapshot holds %d entries in %d bytes", len(snap.entries), len(snap.enc))
	}
}
