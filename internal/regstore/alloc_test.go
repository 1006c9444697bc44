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
	// collect after a winning merge. Measured 2 with an encoder (electd's
	// store): the encoding, allocated once at the cells' summed wire size
	// and written cell by cell, and the snapshot box. It was 3 while the
	// cells were gathered into an entry slice first, 6 on a first read
	// while the encoding was sized from the one it replaced, and about 10
	// appending both from nil. Measured 2 without one (chan's, the sim's):
	// the entry slice, sized from a count of the cells, and the box.
	rebuildAllocs = 2
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
// earlier snapshot to size from — each one's first collect after 32
// winning merges of statuses carrying lists of up to 32 ids, in a store
// with an encoder and in one without.
func TestRebuildAllocBudget(t *testing.T) {
	const n, runs = 32, 100
	list := make([]rt.ProcID, n)
	for i := range list {
		list[i] = rt.ProcID(i)
	}
	for _, s := range []*Store{New(wire.AppendEntry), New(nil)} {
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
		if got > rebuildAllocs {
			t.Fatalf("rebuild of a %d-cell array (encoder %v): %v allocs, budget %d", n, s.encode != nil, got, rebuildAllocs)
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
