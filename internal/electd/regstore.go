package electd

import (
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/rt"
	"repro/internal/wire"
)

// Lock-free register state for one election instance, in the style of
// Alistarh–Gelashvili–Vladu's model: the paper's processors communicate
// through atomic registers, and this file makes the reproduction's server
// hot path match — steady-state propagates and collects touch no mutex.
//
// The structure is RCU over immutable values with per-cell CAS beneath:
//
//   - store.regs is an atomically published immutable directory
//     (register name → *regArray, sorted by name). Adding a register — once
//     per register name per instance — copies it and CASes the pointer.
//   - regArray.cells is indexed by owner id. A cell is an atomic pointer
//     to an immutable cellVal, and a merge is a CAS on it guarded by the
//     writer version: higher sequence numbers win, the rule the
//     mutex-guarded store enforced, now enforced by the retry loop. The
//     array grows a bucket at a time, each published by one CAS from nil;
//     a published cell never moves, so no merge lands in a discarded copy.
//   - regArray.snap is the RCU-published snapshot: an immutable bundle of
//     the owner-ordered entries and their cached wire encoding, tagged
//     with the array version it was built at. Collects load it with one
//     atomic read; a winning merge bumps the version, which lazily
//     invalidates the published snapshot (the next collect rebuilds and
//     re-publishes). A published snapshot is never mutated — readers
//     holding one keep a consistent view forever. A rebuild sizes its
//     entry slice and its encoding from the snapshot it replaces, so one
//     register-array version costs the server one build of three
//     allocations — and, with the clients' view memo (wire.Decoder), each
//     client stream one decode.
//
// Progress: every operation is lock-free (a stalled reader or writer
// cannot block others; CAS retries only when somebody else made
// progress). Snapshot rebuilds can duplicate work under races, which
// costs cycles, never correctness: publication CASes from the observed
// old snapshot, and the version tag makes any stale publication
// self-correcting on the next read.
//
// What stays on the shard mutex is lifecycle, not steady state: instance
// create (admission control needs an exact live count), evict, and
// restart. See Server.Handle.

// store is one election instance's register state on one server. Both
// fields are lock-free: regs is the RCU register directory, last the
// instance's idle clock — the UnixNano of the most recent request that
// touched it — which the sweeper compares against the TTL and the drain
// idle bar.
type store struct {
	regs atomic.Pointer[regDir]
	last atomic.Int64
}

// regDir is the immutable published directory of an instance's register
// arrays, sorted by name. A slice because an election has a dozen registers
// — a binary search costs what hashing the name would — and its first
// register costs 56 bytes where a map's costs 300.
type regDir []regEntry

type regEntry struct {
	name string
	arr  *regArray
}

// find returns reg's array, or nil and the position reg would take.
func (d regDir) find(reg string) (arr *regArray, i int) {
	i, found := slices.BinarySearchFunc(d, reg, func(e regEntry, reg string) int { return strings.Compare(e.name, reg) })
	if found {
		arr = d[i].arr
	}
	return arr, i
}

// newStore builds an instance with an empty published directory.
func newStore() *store {
	st := &store{}
	st.regs.Store(&regDir{})
	return st
}

// regArray is one register array: per-owner CAS cells beneath an
// RCU-published snapshot.
type regArray struct {
	// version counts winning merges. A snapshot is current iff its ver
	// equals this counter; merges bump it after their cell CAS succeeds,
	// so any reader that observes the new version also observes the cell
	// write that caused it.
	version atomic.Uint64
	cells   [cellBuckets]atomic.Pointer[[]cell]
	snap    atomic.Pointer[snapshot]
}

// cell is one owner's register, nil until the owner's first write.
type cell = atomic.Pointer[cellVal]

// Bucket b holds cellBase<<b cells, for the owners from cellBase<<b −
// cellBase up: each bucket doubles the array, and cellBuckets of them cover
// maxOwners (8184) ids. An entry for an owner beyond that is corrupt or
// hostile input, dropped rather than allowed to size an allocation. The
// first bucket is small because many registers only ever see a few owners
// (a late sift round has few survivors).
const (
	cellShift   = 3
	cellBase    = 1 << cellShift
	cellBuckets = 10
	maxOwners   = cellBase<<cellBuckets - cellBase
)

// cellVal is one immutable register-cell state under writer versioning.
type cellVal struct {
	seq uint64
	val rt.Value
}

// rebuildSlack is the room rebuild leaves beyond the old encoding's length
// for what a merge or two can add: a new entry carrying a status with a few
// dozen one-byte ids.
const rebuildSlack = 64

// snapshot is the RCU-published view of one register array: the
// owner-ordered entries and their encoded reply tail (wire.AppendEntries),
// valid at array version ver. Published snapshots are immutable — a
// winning merge makes them stale, never different.
type snapshot struct {
	ver     uint64
	entries []rt.Entry
	enc     []byte
}

// array returns the register array for reg, creating and publishing it on
// first use. Lock-free: creation copies the directory and CASes the
// pointer, retrying if a concurrent creator won (and adopting its array).
func (st *store) array(reg string) *regArray {
	for {
		dirp := st.regs.Load()
		arr, i := dirp.find(reg)
		if arr != nil {
			return arr
		}
		arr = &regArray{}
		next := slices.Concat((*dirp)[:i], regDir{{reg, arr}}, (*dirp)[i:])
		if st.regs.CompareAndSwap(dirp, &next) {
			return arr
		}
	}
}

// cell returns owner's cell, publishing its bucket on first use by a CAS
// from nil, so racing creators agree on one. owner is in [0, maxOwners).
func (arr *regArray) cell(owner rt.ProcID) *cell {
	j := uint(owner) + cellBase // bucket b spans j in [cellBase<<b, cellBase<<(b+1))
	b := bits.Len(j) - 1 - cellShift
	if arr.cells[b].Load() == nil {
		fresh := make([]cell, cellBase<<b)
		arr.cells[b].CompareAndSwap(nil, &fresh) // lost to a racing creator: use its bucket
	}
	return &(*arr.cells[b].Load())[j-cellBase<<b]
}

// merge applies an entry under writer versioning: higher sequence numbers
// win, enforced by a CAS retry loop on the owner's cell. A losing merge
// (stale seq) is a no-op and leaves the published snapshot valid; a
// winning merge installs the new immutable cell value and bumps the array
// version, lazily invalidating the snapshot.
func (st *store) merge(e rt.Entry) {
	if e.Owner < 0 || e.Owner >= maxOwners {
		return // no such processor; see maxOwners
	}
	arr := st.array(e.Reg)
	c := arr.cell(e.Owner)
	for {
		cur := c.Load()
		if cur != nil && e.Seq <= cur.seq {
			return // losing merge: a newer (or equal) write already holds the cell
		}
		if c.CompareAndSwap(cur, &cellVal{seq: e.Seq, val: e.Val}) {
			arr.version.Add(1)
			return
		}
		// A concurrent merge moved the cell; reload and re-decide.
	}
}

// snapshotTail returns the encoded view tail (entry count + entries, in
// owner order — the canonical order both backends' stores use) of one
// register array, with zero locking: the common case is one atomic load
// of the published snapshot. When a merge has won since it was built, the
// caller rebuilds from the cells and re-publishes (see Progress above).
// hit reports whether the published encoding was served as-is (tracing
// detail; an absent array counts as a hit). The bytes are immutable.
func (st *store) snapshotTail(reg string) (tail []byte, hit bool) {
	arr, _ := st.regs.Load().find(reg)
	if arr == nil {
		return emptyTail, true
	}
	// Version first, cells second: a snapshot built from cells read after
	// loading version V contains at least every merge version V counted,
	// and any later merge bumps the version past V, so tagging the build
	// with V can hide nothing — at worst the build is fresher than its
	// tag and the next collect rebuilds once more.
	ver := arr.version.Load()
	if snap := arr.snap.Load(); snap != nil && snap.ver == ver {
		return snap.enc, true
	}
	return arr.rebuild(reg, ver).enc, false
}

// rebuild assembles and publishes a fresh snapshot of arr at version ver.
// Both halves are sized from the snapshot being replaced — cells only fill,
// and usually one merge separates two rebuilds, so the old lengths plus
// room for one more entry are almost always exact — which makes a rebuild
// three allocations (entries, encoding, the snapshot box) instead of a
// dozen steps of append growth from nil. A guess that falls short costs an
// append regrowth, nothing else.
func (arr *regArray) rebuild(reg string, ver uint64) *snapshot {
	old := arr.snap.Load()
	n, size := 0, 0
	if old != nil {
		n, size = len(old.entries), len(old.enc)
	}
	out := make([]rt.Entry, 0, n+1)
	enc := make([]byte, 0, size+rebuildSlack)
	// Index order is owner order, the canonical snapshot order: no sort.
	for b := range arr.cells {
		bucket := arr.cells[b].Load()
		if bucket == nil {
			continue
		}
		for i := range *bucket {
			if cv := (*bucket)[i].Load(); cv != nil {
				out = append(out, rt.Entry{Reg: reg, Owner: rt.ProcID(cellBase<<b - cellBase + i), Seq: cv.seq, Val: cv.val})
			}
		}
	}
	// emptyTail stands in for an array caught before its first cell write,
	// and for values the codec cannot encode — none can arrive through it.
	snap := &snapshot{ver: ver, entries: out, enc: emptyTail}
	if enc, err := wire.AppendEntries(enc, reg, out); err == nil {
		snap.enc = enc
	}
	// Publish unless somebody else already did: CAS from the observed old
	// snapshot, so a concurrent publication is never overwritten blindly.
	// If the CAS loses, the winner's snapshot serves future collects and
	// ours serves this one — both are valid at their tagged versions.
	if old == nil || old.ver <= ver {
		arr.snap.CompareAndSwap(old, snap)
	}
	return snap
}
