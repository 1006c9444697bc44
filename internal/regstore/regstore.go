// Package regstore is the register store behind communicate: the
// owner-versioned register arrays of [ABND95] that every proof in the paper
// rests on (Section 2 — a propagate merges cells, a collect returns a view),
// implemented once for the three places a replica's state lives: an electd
// server's election instance, a live processor's server goroutine, and a sim
// processor's quorum.Store.
//
// The paper's processors communicate through atomic registers, and the
// store makes that literal — no operation takes a lock. The structure is
// RCU over immutable values with per-cell CAS beneath:
//
//   - The directory (register name → array, sorted by name) is an
//     atomically published immutable slice. Adding a register — once per
//     name per store — copies it and CASes the pointer.
//   - An array's cells are indexed by owner id. A cell is an atomic pointer
//     to an immutable rt.Entry (nil is ⊥, sequence 0), and a merge is a CAS
//     on it guarded by the writer version: higher sequence numbers win. The
//     first bucket of cells is part of the array; the array grows a bucket
//     at a time beyond it, each published by one CAS from nil. A published
//     cell never moves, so no merge lands in a discarded copy.
//   - An array's snapshot is RCU-published: an immutable bundle of the
//     non-⊥ cells in owner order and their summed wire size, tagged with
//     the array version it was built at. What it carries of the cells
//     depends on who reads it. A store built with an encoder (electd's)
//     publishes their encoding only — the register-array tail its collect
//     replies splice in, written cell by cell with no entry slice between —
//     and a store without one (live's, the sim's) publishes the entries,
//     which its in-process readers hand out as views. An encoding also gets
//     a tag, drawn from a process-wide counter, that names it for the life
//     of the process (see Snapshot.Tag). A collect loads the
//     snapshot with one atomic read; a winning merge bumps the version,
//     which lazily invalidates the published snapshot — the next collect
//     rebuilds and republishes. A published snapshot is never mutated —
//     but for the record of who holds its encoding (Snapshot.Hold), which
//     is only ever filled in: readers holding one keep a consistent view
//     forever, and collect replies during a quiescent spell share one.
//
// Memory order (Go atomics are sequentially consistent). A merge bumps the
// version after its cell CAS succeeds, so a reader that observes the new
// version also observes the cell write that caused it. A reader loads the
// version first and the cells second: a snapshot built from cells read
// after loading version V contains at least every merge V counted, and any
// later merge moves the version past V, so tagging the build with V can
// hide nothing — at worst the build is fresher than its tag and the next
// collect rebuilds once more. A merge whose CAS has landed but whose bump
// has not is still in progress — its propagate is unacknowledged — so a
// collect served the older snapshot meanwhile is ordered before it.
//
// Adoption. Merge and Write install the caller's *rt.Entry itself, not a
// copy, which is what keeps the in-process merge path allocation-free. It
// is safe because of what the callers hand over: a propagate's payload is
// allocated per call, shared by reference with every replica it is sent
// to, never reused for another call and never written after the store has
// seen it (Write stamps the sequence number before its CAS publishes the
// entry, while nobody else can reach it). The store in turn only ever
// reads an adopted entry. A caller whose entry storage is recycled — electd
// decodes into a pooled message — uses MergeCopy, which copies the entry
// only once it is known to win, into a slot of the store's slab: a fixed
// block of slabEntries entries, published by one CAS and handed out by an
// atomic counter, so a slot has exactly one taker, which writes it before
// its cell CAS publishes it and never after (a slot whose CAS then loses to
// a newer entry is never published, and never handed out again). The slab
// is adoption one level up: the store adopts slots it allocated itself. A
// slab lives while the store's slab pointer or any cell holds one of its
// entries (snapshots copy entries out and pin none), so what slabs retain is
// bounded by one store's winning merges: an electd instance keeps at most
// the slabs of its own election and dies with it — election IDs are
// single-use — and Reset drops the current slab.
//
// Progress: every operation is lock-free — a stalled reader or writer
// cannot block others, and a CAS retries only when somebody else made
// progress. Snapshot rebuilds can duplicate work under races, which costs
// cycles, never correctness: publication CASes from the observed old
// snapshot, and the version tag makes a stale publication self-correcting
// on the next read.
package regstore

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/rt"
)

// Encoder appends the encoding of one entry of register reg to dst. A
// snapshot's encoding is the entry count as a uvarint followed by the
// Encoder's bytes for each non-⊥ cell in owner order — the register-array
// tail of the wire codec. wire.AppendEntry is the one in use; the package
// takes it as a value so that it imports no codec.
type Encoder func(dst []byte, reg string, e *rt.Entry) ([]byte, error)

// Store is one replica's register state: a directory of named register
// arrays. All methods except Reset are safe for concurrent use.
type Store struct {
	dir    atomic.Pointer[[]dirEntry]
	slab   atomic.Pointer[slab] // where winning MergeCopies take their copies
	encode Encoder
}

// slab is a block of entry slots for MergeCopy's copies (see Adoption).
// next counts the slots handed out; it passes slabEntries only while racing
// takers replace a used-up slab, by one per taker.
type slab struct {
	next    atomic.Uint32
	entries [slabEntries]rt.Entry
}

// slabEntries sizes a slab: 64 entries, 3 KiB. Measured per electd instance
// (2-core host, one 12 s run each, 4 000 instances): a median of 147
// winning merges on solo-tcp-n32 (p99 ≈200) and 80 on load-tcp-n16-c4 (p99
// ≈115) — three slabs and two, against one allocation per merge before,
// and at most one slab per instance left partly unused.
const slabEntries = 64

// dirEntry is one row of the immutable published directory, which is sorted
// by name. A slice because an election has a dozen registers — a binary
// search costs what hashing the name would — and its first register costs
// 56 bytes where a map's costs 300.
type dirEntry struct {
	name string
	arr  *array
}

// New builds an empty store. With a non-nil encode, snapshots carry the
// encoding of their entries (Snapshot.Enc).
func New(encode Encoder) *Store {
	s := &Store{encode: encode}
	s.dir.Store(&[]dirEntry{})
	return s
}

// array is one register array: per-owner CAS cells beneath an RCU-published
// snapshot.
type array struct {
	// version counts winning merges. A snapshot is current iff its ver
	// equals this counter.
	version atomic.Uint64
	snap    atomic.Pointer[Snapshot]
	first   [cellBase]cell                          // bucket 0, inline
	more    [cellBuckets - 1]atomic.Pointer[[]cell] // buckets 1 and up, nil until used
}

// cell is one owner's register, nil until the owner's first write.
type cell = atomic.Pointer[rt.Entry]

// Bucket b holds cellBase<<b cells, for the owners from cellBase<<b −
// cellBase up: each bucket doubles the array, and cellBuckets of them cover
// MaxOwners ids. The first bucket holds a 32-processor system whole and is
// part of the array, so creating a register is one allocation, the
// footprint of a fixed n-cell array; a smaller one saves nothing on the
// arrays that stay sparse, because a late sift round's few survivors have
// ids anywhere in [0, n).
const (
	cellShift   = 5
	cellBase    = 1 << cellShift
	cellBuckets = 8

	// MaxOwners bounds the owner ids a store holds cells for (8160). Merge
	// drops an entry for an owner beyond it — corrupt or hostile input —
	// rather than let it size an allocation.
	MaxOwners = cellBase<<cellBuckets - cellBase
)

// countRoom is the room an encoding rebuild reserves ahead of the entries
// for their count, which is known only once the cells have been encoded: the
// uvarint of any count up to MaxOwners (< 1<<14) takes at most two bytes.
const countRoom = 2

// Snapshot is the published view of one register array: its non-⊥ cells in
// owner order, valid at one array version. A store built with an encoder
// publishes them encoded (Enc) and a store without one as entries (Entries),
// never both. Snapshots are immutable and shared by every reader of that
// version — a winning merge makes one stale, never different.
type Snapshot struct {
	ver uint64
	// Entries are the non-⊥ cells in owner order; nil in a store built with
	// an encoder.
	Entries []rt.Entry
	// Size is Σ Entry.WireSize over the non-⊥ cells: the encoding minus its
	// count prefix.
	Size int
	// Enc is the entry count followed by the store's Encoder applied to each
	// non-⊥ cell in owner order; nil in a store built without an encoder,
	// for an absent array, and for entries the encoder refuses.
	Enc []byte
	// Tag names Enc for the life of the process: every encoding a rebuild
	// produces draws a fresh one from a process-wide counter, so two
	// snapshots with one tag are one snapshot, and equal tags mean
	// byte-identical encodings — across arrays, stores and the instances an
	// eviction replaces, whose array versions restart where tags never do.
	// 0, no name, wherever Enc is nil.
	Tag uint64

	// holders records who has been sent Enc (see Hold): the one part of a
	// snapshot written after it is published, and only ever filled in.
	holders [snapHolders]atomic.Uint64
}

// snapHolders bounds the holders a snapshot records: one per client
// connection reading the array — a client process pools one per server —
// with room for a few.
const snapHolders = 4

// Hold records that the reader named id — nonzero, chosen by the caller —
// holds this snapshot's encoding. A snapshot records up to snapHolders
// names; past that, Hold forgets, which Held reports as not holding. Safe
// for concurrent use; a snapshot without a tag records nothing.
func (s *Snapshot) Hold(id uint64) {
	if s.Tag == 0 {
		return
	}
	for i := range s.holders {
		h := &s.holders[i]
		if h.Load() == 0 {
			h.CompareAndSwap(0, id) // lost to a racing Hold: check what it took
		}
		if h.Load() == id {
			return
		}
	}
}

// Held reports whether Hold recorded id.
func (s *Snapshot) Held(id uint64) bool {
	for i := range s.holders {
		switch s.holders[i].Load() {
		case id:
			return true
		case 0:
			return false
		}
	}
	return false
}

// tags is the process-wide counter Snapshot.Tag draws from.
var tags atomic.Uint64

// absent is the snapshot of a register array the store does not hold.
var absent Snapshot

// find returns reg's array, or nil and the position reg would take.
func find(dir []dirEntry, reg string) (arr *array, i int) {
	i, found := slices.BinarySearchFunc(dir, reg, func(e dirEntry, reg string) int { return strings.Compare(e.name, reg) })
	if found {
		arr = dir[i].arr
	}
	return arr, i
}

// array returns the register array for reg, creating and publishing it on
// first use: creation copies the directory and CASes the pointer, retrying
// if a concurrent creator won (and adopting its array).
func (s *Store) array(reg string) *array {
	for {
		dirp := s.dir.Load()
		arr, i := find(*dirp, reg)
		if arr != nil {
			return arr
		}
		arr = &array{}
		next := slices.Concat((*dirp)[:i], []dirEntry{{reg, arr}}, (*dirp)[i:])
		if s.dir.CompareAndSwap(dirp, &next) {
			return arr
		}
	}
}

// slot locates owner's cell: bucket b, index i. owner is in [0, MaxOwners).
func slot(owner rt.ProcID) (b int, i uint) {
	j := uint(owner) + cellBase // bucket b spans j in [cellBase<<b, cellBase<<(b+1))
	b = bits.Len(j) - 1 - cellShift
	return b, j - cellBase<<b
}

// bucket returns bucket b's cells, nil while it is unpublished.
func (arr *array) bucket(b int) []cell {
	if b == 0 {
		return arr.first[:]
	}
	if p := arr.more[b-1].Load(); p != nil {
		return *p
	}
	return nil
}

// entries yields arr's non-⊥ cells in owner order — index order, the
// canonical snapshot order: no sort.
func (arr *array) entries(yield func(*rt.Entry) bool) {
	for b := range cellBuckets {
		bucket := arr.bucket(b)
		for i := range bucket {
			if e := bucket[i].Load(); e != nil && !yield(e) {
				return
			}
		}
	}
}

// cell returns owner's cell, publishing its bucket on first use by a CAS
// from nil, so racing creators agree on one.
func (arr *array) cell(owner rt.ProcID) *cell {
	b, i := slot(owner)
	if b == 0 {
		return &arr.first[i]
	}
	p := &arr.more[b-1]
	if p.Load() == nil {
		fresh := make([]cell, cellBase<<b)
		p.CompareAndSwap(nil, &fresh) // lost to a racing creator: use its bucket
	}
	return &(*p.Load())[i]
}

// take returns a slab slot for a winning MergeCopy's copy: the current
// slab's next one, or, once it is used up, the first of a fresh slab that
// one CAS publishes — a taker that loses that CAS takes from the winner's.
// The slot is the caller's alone until its cell CAS publishes it.
func (s *Store) take() *rt.Entry {
	for {
		sl := s.slab.Load()
		if sl != nil {
			if i := sl.next.Add(1) - 1; i < slabEntries {
				return &sl.entries[i]
			}
		}
		fresh := &slab{}
		fresh.next.Store(1)
		if s.slab.CompareAndSwap(sl, fresh) {
			return &fresh.entries[0]
		}
	}
}

// seq is a cell value's sequence number; ⊥ is 0, below every write.
func seq(e *rt.Entry) uint64 {
	if e == nil {
		return 0
	}
	return e.Seq
}

// Merge applies an entry under writer versioning — higher sequence numbers
// win — and adopts the pointer: e must stay valid and unwritten from here
// on (see Adoption above). A losing merge (stale or repeated sequence
// number) is a no-op and leaves the published snapshot valid; a winning one
// installs e and bumps the array version. An entry for an owner outside
// [0, MaxOwners) is dropped.
func (s *Store) Merge(e *rt.Entry) { s.merge(e, true) }

// MergeCopy is Merge for an entry whose storage the caller will reuse: a
// winning merge installs a copy in a slab slot, taken once the entry is
// known to win, so a losing one takes nothing.
func (s *Store) MergeCopy(e *rt.Entry) { s.merge(e, false) }

func (s *Store) merge(e *rt.Entry, owned bool) {
	if e.Owner < 0 || e.Owner >= MaxOwners {
		return // no such processor; see MaxOwners
	}
	arr := s.array(e.Reg)
	c := arr.cell(e.Owner)
	for {
		cur := c.Load()
		if e.Seq <= seq(cur) {
			return // a newer (or equal) write already holds the cell
		}
		if !owned {
			cp := s.take()
			*cp = *e
			e, owned = cp, true
		}
		if c.CompareAndSwap(cur, e) {
			arr.version.Add(1)
			return
		}
		// A concurrent merge moved the cell; reload and re-decide.
	}
}

// Write is the owner's own write of e.Reg[e.Owner] = e.Val: it stamps e
// with the sequence number after the cell's current one and installs it,
// adopting the pointer as Merge does. Only the owner increments its own
// sequence, but a retransmitted propagate of an older own entry can race in
// through Merge, and the CAS keeps writer versioning exact either way.
func (s *Store) Write(e *rt.Entry) {
	arr := s.array(e.Reg)
	c := arr.cell(e.Owner)
	for {
		cur := c.Load()
		e.Seq = seq(cur) + 1 // e is unpublished until the CAS below wins
		if c.CompareAndSwap(cur, e) {
			arr.version.Add(1)
			return
		}
	}
}

// Load returns owner's cell of reg, nil for ⊥. The entry is immutable.
func (s *Store) Load(reg string, owner rt.ProcID) *rt.Entry {
	arr, _ := find(*s.dir.Load(), reg)
	if arr == nil {
		return nil
	}
	b, i := slot(owner)
	bucket := arr.bucket(b)
	if bucket == nil {
		return nil
	}
	return bucket[i].Load()
}

// Snapshot returns the current view of reg: the published snapshot when no
// merge has won since it was built — one atomic load — and otherwise a
// fresh one, rebuilt from the cells and republished. cached reports which;
// a register the store holds no array for reads as an empty snapshot and
// counts as cached.
func (s *Store) Snapshot(reg string) (snap *Snapshot, cached bool) {
	arr, _ := find(*s.dir.Load(), reg)
	if arr == nil {
		return &absent, true
	}
	ver := arr.version.Load() // before the cells: see Memory order
	if snap := arr.snap.Load(); snap != nil && snap.ver == ver {
		return snap, true
	}
	return s.rebuild(arr, reg, ver), false
}

// rebuild assembles and publishes a fresh snapshot of arr at version ver:
// its encoding in a store built with an encoder, its entries otherwise.
// Either is allocated once, at the size a first walk over the cells finds —
// not grown from nil by a dozen steps of append, and not sized for the
// worst case of every cell written; a cell that fills or grows between the
// two walks costs an append regrowth, nothing else.
func (s *Store) rebuild(arr *array, reg string, ver uint64) *Snapshot {
	old := arr.snap.Load()
	snap := &Snapshot{ver: ver}
	if s.encode == nil {
		snap.gather(arr)
	} else {
		snap.encode(arr, reg, s.encode)
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

// gather fills snap.Entries and snap.Size from arr's cells, the slice
// sized by a count of them.
func (snap *Snapshot) gather(arr *array) {
	n := 0
	for range arr.entries {
		n++
	}
	snap.Entries = make([]rt.Entry, 0, n)
	for e := range arr.entries {
		snap.Entries = append(snap.Entries, *e)
		snap.Size += e.WireSize()
	}
}

// encode fills snap.Enc, snap.Size and snap.Tag from arr's cells, each
// encoded straight from the immutable entry it holds, with no entry slice in
// between. The encoding is sized by the cells' summed wire size, with
// countRoom in front for the count the encoding walk arrives at. Entries
// the encoder refuses leave the snapshot without an encoding or a tag.
func (snap *Snapshot) encode(arr *array, reg string, encode Encoder) {
	size := countRoom
	for e := range arr.entries {
		size += e.WireSize()
	}
	enc, n := make([]byte, countRoom, size), 0
	for e := range arr.entries {
		var err error
		if enc, err = encode(enc, reg, e); err != nil {
			return
		}
		n++
	}
	start := countRoom - rt.UvarintSize(uint64(n))
	binary.PutUvarint(enc[start:], uint64(n))
	snap.Enc, snap.Size, snap.Tag = enc[start:], len(enc)-countRoom, tags.Add(1)
}

// Reset returns the store to empty — every cell ⊥, every version 0, no
// snapshot, no slab — keeping the directory and the cell buckets, so a
// store reused for the next election of the same algorithm allocates none
// of them again. The caller must have quiesced the store: Reset is not safe
// against concurrent use. Every write to a cell bumps its array's version,
// so an array still at version 0 holds no entry and its cells are not
// walked.
func (s *Store) Reset() {
	for _, d := range *s.dir.Load() {
		arr := d.arr
		if arr.version.Load() != 0 {
			for b := range cellBuckets {
				bucket := arr.bucket(b)
				for i := range bucket {
					bucket[i].Store(nil)
				}
			}
			arr.version.Store(0)
		}
		arr.snap.Store(nil)
	}
	s.slab.Store(nil)
}
