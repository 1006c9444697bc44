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
	// rebuildAllocs: one snapshot rebuild of a 32-cell register array with
	// an encoder — the collect after a winning merge. Measured 3: the entry
	// slice, the encoding and the snapshot box, each allocated once at its
	// final size. Appending both from nil took about 10.
	rebuildAllocs = 3
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

func TestRebuildAllocBudget(t *testing.T) {
	const n, reg = 32, "leaderelect/sift/3/status"
	list := make([]rt.ProcID, n)
	for i := range list {
		list[i] = rt.ProcID(i)
	}
	s := New(wire.AppendEntries)
	for i := 0; i < n; i++ {
		s.Merge(&rt.Entry{Reg: reg, Owner: rt.ProcID(i), Seq: 1, Val: core.Status{Stat: core.LowPri, List: list[:n-i]}})
	}
	arr := s.array(reg)
	s.rebuild(arr, reg, arr.version.Load()) // the first build has no encoding to size from
	var snap *Snapshot
	got := testing.AllocsPerRun(1000, func() { snap = s.rebuild(arr, reg, arr.version.Load()) })
	if got > rebuildAllocs {
		t.Fatalf("rebuild of a %d-cell array: %v allocs, budget %d", n, got, rebuildAllocs)
	}
	if len(snap.Entries) != n || len(snap.Enc) < n {
		t.Fatalf("rebuilt snapshot holds %d entries in %d bytes", len(snap.Entries), len(snap.Enc))
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
