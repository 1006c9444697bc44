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
