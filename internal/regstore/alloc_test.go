//go:build !race

package regstore

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rt"
	"repro/internal/wire"
)

// The store's allocation budgets (run without the race detector, as the
// budgets of the paths built on it are).
const (
	// rebuildAllocs: one snapshot rebuild of a 32-cell register array — the
	// collect after a winning merge — in a store with an encoder (electd's).
	// Measured 2: the encoding, allocated once at the cells' summed wire
	// size and written cell by cell, and the snapshot box. It was 3 while
	// the cells were gathered into an entry slice first, 6 on a first read
	// while the encoding was sized from the one it replaced, and about 10
	// appending both from nil.
	rebuildAllocs = 2
	// rebuildCarvedAllocs: the same rebuild in a store without an encoder
	// (chan's, the sim's), of a carveEntries-cell array. Measured 0: the box
	// and the entries are carved from the store's blocks, one box block per
	// boxSnaps rebuilds and one slab per four (100 rebuilds take 7 and 25,
	// which AllocsPerRun's whole-number mean reads as 0). It was 2, the
	// entry slice sized from a count of the cells and the box. A view
	// longer than carveEntries still takes its entry slice from the heap:
	// rebuildLongAllocs, measured 1 on the 32-cell array.
	rebuildCarvedAllocs = 0
	rebuildLongAllocs   = 1
	// mergeCopyAllocs: a winning MergeCopy. Measured 0: its copy takes a
	// slab slot, and one slab serves slabEntries wins (1000 wins take 16
	// slabs, which AllocsPerRun's whole-number mean reads as 0); it was 1,
	// a heap copy per win. A losing one, and any Merge or Write (they adopt),
	// allocate nothing.
	mergeCopyAllocs = 0
	// newRegisterAllocs: the first merge into a register the store does not
	// hold yet. Measured 3: the array, its first cell bucket inline, and the
	// directory copy — the grown slice and the header box its CAS
	// publishes; it was 5, with the bucket and its header allocated apart.
	newRegisterAllocs = 3
)

// TestRebuildAllocBudget rebuilds arrays that have never been read — no
// earlier snapshot to size from — each one's first collect after winning
// merges into every cell of statuses carrying lists of up to 32 ids: 32
// cells in a store with an encoder, and carveEntries and 32 cells in one
// without.
func TestRebuildAllocBudget(t *testing.T) {
	const runs = 100
	list := make([]rt.ProcID, 32)
	for i := range list {
		list[i] = rt.ProcID(i)
	}
	for _, c := range []struct {
		s      *Store
		n      int
		budget float64
	}{
		{New(wire.AppendEntry), 32, rebuildAllocs},
		{New(nil), carveEntries, rebuildCarvedAllocs},
		{New(nil), 32, rebuildLongAllocs},
	} {
		s, n := c.s, c.n
		regs := make([]string, runs+1)
		for r := range regs {
			regs[r] = fmt.Sprintf("leaderelect/sift/%d/status", r)
			for i := 0; i < n; i++ {
				s.Merge(&rt.Entry{Reg: regs[r], Owner: rt.ProcID(i), Seq: 1, Val: core.Status{Stat: core.LowPri, List: list[:n-i]}})
			}
		}
		r := 0
		var snap *Snapshot
		got := testing.AllocsPerRun(runs, func() {
			arr := s.array(regs[r])
			snap = s.rebuild(arr, regs[r], arr.version.Load())
			r++
		})
		if got > c.budget {
			t.Fatalf("rebuild of a %d-cell array (encoder %v): %v allocs, budget %v", n, s.encode != nil, got, c.budget)
		}
		if entries := cells(t, s, regs[r-1], snap); len(entries) != n {
			t.Fatalf("rebuilt snapshot holds %d entries in %d bytes", len(entries), len(snap.Enc))
		}
	}
}

func TestMergeAllocBudget(t *testing.T) {
	s := New(nil)
	e := rt.Entry{Reg: "r", Owner: 3, Val: 1}
	adopted := make([]rt.Entry, 2001)
	for i := range adopted {
		adopted[i] = e
	}
	i := 0
	next := func() *rt.Entry { i++; adopted[i].Seq = uint64(i); return &adopted[i] }
	if got := testing.AllocsPerRun(1000, func() { s.Merge(next()) }); got != 0 {
		t.Fatalf("winning Merge: %v allocs, want 0 (it adopts)", got)
	}
	e.Seq = uint64(i) // the cell's current sequence: loses
	if got := testing.AllocsPerRun(1000, func() { s.MergeCopy(&e) }); got != 0 {
		t.Fatalf("losing MergeCopy: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { e.Seq++; s.MergeCopy(&e) }); got > mergeCopyAllocs {
		t.Fatalf("winning MergeCopy: %v allocs, budget %d", got, mergeCopyAllocs)
	}
	if got := testing.AllocsPerRun(900, func() { s.Write(next()) }); got != 0 {
		t.Fatalf("Write: %v allocs, want 0 (it adopts)", got)
	}

	fresh := make([]rt.Entry, 1002)
	for j := range fresh {
		fresh[j] = rt.Entry{Reg: fmt.Sprintf("new/%04d", j), Owner: 3, Seq: 1, Val: 1}
	}
	j := 0
	if got := testing.AllocsPerRun(1000, func() { j++; s.Merge(&fresh[j]) }); got > newRegisterAllocs {
		t.Fatalf("first merge into a new register: %v allocs, budget %d", got, newRegisterAllocs)
	}
}
