package regstore

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rt"
	"repro/internal/wire"
)

// TestMergeConvergesRegardlessOfOrder: applying the same set of entries in
// any order, any number of times, yields the same store state (merge is
// commutative and idempotent) — the reason stale retransmissions are
// harmless.
func TestMergeConvergesRegardlessOfOrder(t *testing.T) {
	f := func(seqs []uint8, perm int64) bool {
		const n = 4
		var entries []rt.Entry
		for i, s := range seqs {
			owner := i % n
			seq := uint64(s%8) + 1
			// In the real protocol (owner, seq) determines the value: the
			// cell has a single writer that bumps seq on every write. Keep
			// the generated entries consistent with that.
			entries = append(entries, rt.Entry{Reg: "r", Owner: rt.ProcID(owner), Seq: seq, Val: int(seq)*10 + owner})
		}
		a := New(nil)
		for i := range entries {
			a.Merge(&entries[i])
		}
		b := New(nil)
		rng := rand.New(rand.NewSource(perm))
		for _, i := range rng.Perm(len(entries)) {
			b.MergeCopy(&entries[i])
		}
		for i := range entries { // twice: idempotence
			b.Merge(&entries[i])
		}
		for j := rt.ProcID(0); j < n; j++ {
			ae, be := a.Load("r", j), b.Load("r", j)
			if (ae == nil) != (be == nil) || (ae != nil && *ae != *be) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCacheInvalidation: an unchanged array serves its published
// snapshot; a losing merge — a stale sequence number, or sequence 0, which
// is ⊥'s — leaves it published; a winning merge and an own write replace it.
func TestSnapshotCacheInvalidation(t *testing.T) {
	s := New(nil)
	s.Merge(&rt.Entry{Reg: "r", Owner: 1, Seq: 1, Val: "a"})
	snap1, cached := s.Snapshot("r")
	if cached || len(snap1.Entries) != 1 {
		t.Fatalf("first snapshot: cached=%v, entries %+v", cached, snap1.Entries)
	}
	if again, cached := s.Snapshot("r"); again != snap1 || !cached {
		t.Fatal("unchanged store should serve the published snapshot")
	}
	s.Merge(&rt.Entry{Reg: "r", Owner: 1, Seq: 1, Val: "stale"})
	s.Merge(&rt.Entry{Reg: "r", Owner: 2, Seq: 0, Val: "bottom"})
	if again, cached := s.Snapshot("r"); again != snap1 || !cached {
		t.Fatal("a losing merge invalidated the snapshot")
	}
	s.Merge(&rt.Entry{Reg: "r", Owner: 2, Seq: 1, Val: "b"})
	snap2, cached := s.Snapshot("r")
	if cached || len(snap2.Entries) != 2 {
		t.Fatalf("snapshot after a winning merge: cached=%v, entries %+v", cached, snap2.Entries)
	}
	own := &rt.Entry{Reg: "r", Owner: 1, Val: "c"}
	s.Write(own)
	snap3, cached := s.Snapshot("r")
	if cached || own.Seq != 2 || snap3.Entries[0] != *own || s.Load("r", 1) != own {
		t.Fatalf("snapshot after an own write: cached=%v, stamped seq %d, entries %+v", cached, own.Seq, snap3.Entries)
	}
	if len(snap1.Entries) != 1 || snap1.Entries[0].Val != "a" {
		t.Fatalf("the first snapshot changed under later writes: %+v", snap1.Entries)
	}
}

// cells returns what a snapshot publishes of the non-⊥ cells: the entries of
// a store without an encoder, and the decoded encoding of one with — whose
// Entries must be nil, so that no check passes vacuously on them.
func cells(t *testing.T, s *Store, reg string, snap *Snapshot) []rt.Entry {
	t.Helper()
	if s.encode == nil {
		return snap.Entries
	}
	if snap.Entries != nil {
		t.Fatalf("a store with an encoder published entries: %+v", snap.Entries)
	}
	return decodeTail(t, reg, snap.Enc)
}

// decodeTail decodes an encoded register-array tail of reg, wrapped in a
// view frame, with the cache-less decoder.
func decodeTail(t *testing.T, reg string, tail []byte) []rt.Entry {
	t.Helper()
	frame, err := wire.AppendReplyFrame(nil, wire.KindView, 1, 1, 0, 0, reg, tail)
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := wire.SplitFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.Decode(body)
	if err != nil {
		t.Fatalf("snapshot encoding %x does not decode: %v", tail, err)
	}
	return m.Entries
}

// TestSnapshotSizeTracksEntries: the cached size is Σ Entry.WireSize with or
// without an encoder — with one it is read off the encoding, which is the
// entry count followed by exactly those bytes — and an absent register reads
// as empty.
func TestSnapshotSizeTracksEntries(t *testing.T) {
	for _, s := range []*Store{New(nil), New(wire.AppendEntry)} {
		s.Merge(&rt.Entry{Reg: "r", Owner: 1, Seq: 1, Val: 5})
		s.Merge(&rt.Entry{Reg: "r", Owner: 200, Seq: 300, Val: "a string"})
		snap, _ := s.Snapshot("r")
		got := cells(t, s, "r", snap)
		want := 0
		for _, e := range got {
			want += e.WireSize()
		}
		if len(got) != 2 || snap.Size != want {
			t.Fatalf("Size = %d over %d entries, want %d over 2", snap.Size, len(got), want)
		}
		if s.encode != nil && len(snap.Enc) != 1+want {
			t.Fatalf("encoding is %d bytes, want the count byte + %d", len(snap.Enc), want)
		}
		if snap, cached := s.Snapshot("missing"); !cached || snap.Entries != nil || snap.Size != 0 || snap.Enc != nil {
			t.Fatalf("absent register reads %+v (cached=%v)", snap, cached)
		}
	}
}

// TestEncodingIsAppendEntries: an encoder store's snapshot is byte for byte
// wire.AppendEntries of its cells in owner order — across bucket boundaries,
// with every kind of value, and past 127 cells, where the count takes both
// bytes of the room a rebuild reserves for it.
func TestEncodingIsAppendEntries(t *testing.T) {
	const reg = "elect/sift/1/status"
	s := New(wire.AppendEntry)
	vals := []rt.Value{nil, true, -7, "a string", core.Status{Stat: core.HighPri, List: []rt.ProcID{0, 3, 300}}}
	owners := []rt.ProcID{5000, 0, 31, 32, 95, 96, 1}
	for o := rt.ProcID(200); o < 330; o++ {
		owners = append(owners, o)
	}
	for i, owner := range owners {
		s.Merge(&rt.Entry{Reg: reg, Owner: owner, Seq: uint64(i + 1), Val: vals[i%len(vals)]})
		if i == 5 || i == len(owners)-1 { // one snapshot under 128 cells, one over
			var inOrder []rt.Entry
			for o := rt.ProcID(0); o < MaxOwners; o++ {
				if e := s.Load(reg, o); e != nil {
					inOrder = append(inOrder, *e)
				}
			}
			want, err := wire.AppendEntries(nil, reg, inOrder)
			if err != nil {
				t.Fatal(err)
			}
			snap, _ := s.Snapshot(reg)
			if !bytes.Equal(snap.Enc, want) || snap.Size != len(want)-rt.UvarintSize(uint64(len(inOrder))) {
				t.Fatalf("%d cells: snapshot encodes\n  %x (size %d), AppendEntries of the cells\n  %x", len(inOrder), snap.Enc, snap.Size, want)
			}
		}
	}
}

// TestSnapshotImmutableUnderWinningMerge pins the RCU contract: a published
// snapshot handed to a reader never changes afterwards, no matter how many
// winning merges race with and follow the read. The retained entries and
// encoding must stay identical to the copies taken at read time, while fresh
// reads must observe the new writes.
func TestSnapshotImmutableUnderWinningMerge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := New(wire.AppendEntry)
	for owner := rt.ProcID(0); owner < 4; owner++ {
		s.MergeCopy(&rt.Entry{Reg: "r", Owner: owner, Seq: 1, Val: int(owner)})
	}
	retained, _ := s.Snapshot("r")
	pinnedEnc := bytes.Clone(retained.Enc)
	pinnedEntries := cells(t, s, "r", retained)
	if len(pinnedEntries) != 4 {
		t.Fatalf("snapshot of 4 cells decodes to %+v", pinnedEntries)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(owner rt.ProcID) {
			defer wg.Done()
			for seq := uint64(2); seq < 400; seq++ {
				s.MergeCopy(&rt.Entry{Reg: "r", Owner: owner, Seq: seq, Val: int(seq)})
				if seq%16 == 0 {
					s.Snapshot("r") // concurrent rebuild/republish traffic
				}
			}
		}(rt.ProcID(w))
	}
	wg.Wait()

	if !bytes.Equal(retained.Enc, pinnedEnc) {
		t.Fatalf("published encoding mutated under racing merges:\n  at read: %x\n  now:     %x", pinnedEnc, retained.Enc)
	}
	for i, e := range cells(t, s, "r", retained) {
		if e != pinnedEntries[i] {
			t.Fatalf("published entry %d mutated under racing merges: %+v, was %+v", i, e, pinnedEntries[i])
		}
	}
	fresh, _ := s.Snapshot("r")
	if bytes.Equal(fresh.Enc, pinnedEnc) {
		t.Fatalf("snapshot after %d winning merges is byte-identical to the pre-merge one", 4*398)
	}
	freshEntries := cells(t, s, "r", fresh)
	if len(freshEntries) != 4 {
		t.Fatalf("snapshot of 4 cells decodes to %+v", freshEntries)
	}
	for _, e := range freshEntries {
		if e.Seq != 399 {
			t.Fatalf("entry owner=%d seq=%d after merges up to 399", e.Owner, e.Seq)
		}
	}
}

// TestMergeCopySlabRollover tortures the slab behind MergeCopy: goroutines
// race winning and losing merges on shared owners and on owners of their
// own, in two registers of one store, across hundreds of slab boundaries,
// with snapshots taken alongside. Each merges from one entry it overwrites
// after every call, as electd's recycled messages do. Three things must
// hold: every cell ends at the highest sequence merged into it; a published
// entry's address is never seen holding anything else — no slot is handed
// out twice or written after publication; and a snapshot, once taken, never
// changes.
func TestMergeCopySlabRollover(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Every merge into a worker's own owner wins: 8·2000·2 = 32 000 wins,
	// 500 slabs, besides whatever the shared owners' races leave to win.
	const workers, seqs = 8, 2000
	regs := []string{"a", "b"}
	val := func(owner rt.ProcID, seq uint64) int { return int(seq)*1000 + int(owner) }
	s := New(wire.AppendEntry)

	type retained struct {
		reg  string
		snap *Snapshot
		enc  []byte
	}
	seen := make([]map[*rt.Entry]rt.Entry, workers) // per worker: address → what it held
	kept := make([][]retained, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen[w] = map[*rt.Entry]rt.Entry{}
			// Owners 0–2 are everybody's; owner 10+w is this worker's alone.
			owners := []rt.ProcID{0, 1, 2, rt.ProcID(10 + w)}
			var e rt.Entry // the recycled decode slot
			for seq := uint64(1); seq <= seqs; seq++ {
				for _, reg := range regs {
					for _, owner := range owners {
						e = rt.Entry{Reg: reg, Owner: owner, Seq: seq, Val: val(owner, seq)}
						s.MergeCopy(&e)
						e = rt.Entry{Reg: "scribbled", Owner: owner, Seq: 1 << 40, Val: -1}
					}
				}
				if seq%50 != 0 {
					continue
				}
				for _, reg := range regs {
					snap, _ := s.Snapshot(reg)
					kept[w] = append(kept[w], retained{reg, snap, bytes.Clone(snap.Enc)})
					for _, owner := range owners {
						if p := s.Load(reg, owner); p != nil {
							if prev, ok := seen[w][p]; ok && prev != *p {
								t.Errorf("entry at %p changed from %+v to %+v", p, prev, *p)
								return
							}
							seen[w][p] = *p
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	for _, reg := range regs {
		for owner := rt.ProcID(0); owner < 10+workers; owner++ {
			e := s.Load(reg, owner)
			if owner > 2 && owner < 10 {
				if e != nil {
					t.Fatalf("%s[%d] was never merged into, holds %+v", reg, owner, *e)
				}
				continue
			}
			if e == nil || *e != (rt.Entry{Reg: reg, Owner: owner, Seq: seqs, Val: val(owner, seqs)}) {
				t.Fatalf("%s[%d] ends at %+v, want sequence %d", reg, owner, e, seqs)
			}
		}
	}
	all := map[*rt.Entry]rt.Entry{}
	for _, m := range seen {
		for p, e := range m {
			if prev, ok := all[p]; ok && prev != e {
				t.Fatalf("one address published twice: %+v and %+v", prev, e)
			}
			if *p != e {
				t.Fatalf("published entry at %p changed from %+v to %+v", p, e, *p)
			}
			all[p] = e
		}
	}
	if want := workers * seqs / 50 * len(regs); len(all) < want { // every look at an own owner finds a new entry
		t.Fatalf("saw %d published entries, want at least %d", len(all), want)
	}
	for _, ks := range kept {
		for _, k := range ks {
			if !bytes.Equal(k.snap.Enc, k.enc) {
				t.Fatalf("a retained snapshot changed:\n  taken %x\n  now   %x", k.enc, k.snap.Enc)
			}
			entries := cells(t, s, k.reg, k.snap)
			if len(entries) < 4 { // the worker's own owner and the three shared ones
				t.Fatalf("a snapshot taken after 50 merges per owner holds %+v", entries)
			}
			for _, e := range entries {
				if e.Val != val(e.Owner, e.Seq) {
					t.Fatalf("snapshot holds a torn entry %+v", e)
				}
			}
		}
	}
}

// TestCellBucketsKeepOwnerOrder: owners on both sides of every bucket
// boundary land in distinct cells, snapshots come back in owner order with
// no sort, racing first writes into one fresh bucket all survive, and an
// owner id past MaxOwners — corrupt or hostile wire input — is dropped
// instead of sizing an allocation.
func TestCellBucketsKeepOwnerOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := New(nil)
	owners := []rt.ProcID{MaxOwners - 1, 64, 0, cellBase, cellBase - 1, 3*cellBase - 1, 3 * cellBase, 5000, 1}
	var wg sync.WaitGroup
	for _, owner := range owners {
		wg.Add(1)
		go func(owner rt.ProcID) {
			defer wg.Done()
			s.Merge(&rt.Entry{Reg: "r", Owner: owner, Seq: 1, Val: int(owner)})
		}(owner)
	}
	wg.Wait()
	for _, hostile := range []rt.ProcID{MaxOwners, wire.MaxID, -1} {
		s.Merge(&rt.Entry{Reg: "r", Owner: hostile, Seq: 1, Val: 0})
		s.MergeCopy(&rt.Entry{Reg: "r", Owner: hostile, Seq: 1, Val: 0})
	}
	snap, _ := s.Snapshot("r")
	if len(snap.Entries) != len(owners) {
		t.Fatalf("snapshot holds %d entries, want %d: %+v", len(snap.Entries), len(owners), snap.Entries)
	}
	for i, e := range snap.Entries {
		if e.Val != int(e.Owner) || s.Load("r", e.Owner).Val != e.Val {
			t.Fatalf("owner %d reads back %v", e.Owner, e.Val)
		}
		if i > 0 && snap.Entries[i-1].Owner >= e.Owner {
			t.Fatalf("snapshot out of owner order: %+v", snap.Entries)
		}
	}
	if e := s.Load("r", 2); e != nil {
		t.Fatalf("unwritten owner 2 reads %+v, want ⊥", e)
	}
	if e := s.Load("r", 600); e != nil { // its bucket was never allocated
		t.Fatalf("unwritten owner 600 reads %+v, want ⊥", e)
	}
}

// TestEmptyArraySnapshotStaysWellFormed: a collect can catch a register
// array between its creation and its first cell write. The snapshot it
// publishes then must keep answering with the empty view's encoding — an
// entry count of zero — and not with no bytes at all, which the client
// would reject as a truncated frame.
func TestEmptyArraySnapshotStaysWellFormed(t *testing.T) {
	s := New(wire.AppendEntry)
	s.array("r")             // created, nothing merged yet
	for i := 0; i < 2; i++ { // second read is served from the published snapshot
		snap, cached := s.Snapshot("r")
		if !bytes.Equal(snap.Enc, []byte{0}) || snap.Entries != nil || snap.Size != 0 || cached != (i == 1) {
			t.Fatalf("read %d of an empty array returned %+v (cached=%v), want the encoding 00", i, snap, cached)
		}
	}
}

// TestResetKeepsArraysDropsState: after Reset every cell is ⊥, every version
// 0, no snapshot is published and no slab is kept — nothing of the last
// election is pinned — while the directory and the cell buckets are the same
// objects, so the next election of the same algorithm allocates neither; and
// the store then behaves as a fresh one, sequence numbers included.
func TestResetKeepsArraysDropsState(t *testing.T) {
	s := New(wire.AppendEntry)
	for _, reg := range []string{"a", "b"} {
		for owner := rt.ProcID(0); owner < cellBase+8; owner++ { // two buckets
			s.Write(&rt.Entry{Reg: reg, Owner: owner, Val: int(owner)})
		}
		s.Snapshot(reg)
	}
	s.MergeCopy(&rt.Entry{Reg: "b", Owner: 1, Seq: 9, Val: "copied"})
	s.array("untouched")
	dir := s.dir.Load()
	buckets := map[*array][cellBuckets - 1]*[]cell{}
	for _, d := range *dir {
		var bs [cellBuckets - 1]*[]cell
		for b := range d.arr.more {
			bs[b] = d.arr.more[b].Load()
		}
		buckets[d.arr] = bs
	}

	s.Reset()
	s.Reset() // idempotent

	if s.dir.Load() != dir || len(*dir) != 3 {
		t.Fatalf("Reset replaced the directory (%d arrays)", len(*s.dir.Load()))
	}
	if s.slab.Load() != nil {
		t.Fatal("Reset kept the slab of the last election's copies")
	}
	for _, d := range *dir {
		if v, snap := d.arr.version.Load(), d.arr.snap.Load(); v != 0 || snap != nil {
			t.Fatalf("%s after Reset: version %d, snapshot %v", d.name, v, snap)
		}
		for b := range d.arr.more {
			if d.arr.more[b].Load() != buckets[d.arr][b] {
				t.Fatalf("%s after Reset: bucket %d was replaced", d.name, b+1)
			}
		}
		for b := range cellBuckets {
			bucket := d.arr.bucket(b)
			for i := range bucket {
				if e := bucket[i].Load(); e != nil {
					t.Fatalf("%s after Reset: bucket %d cell %d still holds %+v", d.name, b, i, *e)
				}
			}
		}
		if snap, _ := s.Snapshot(d.name); len(cells(t, s, d.name, snap)) != 0 || !bytes.Equal(snap.Enc, []byte{0}) {
			t.Fatalf("%s after Reset reads %+v", d.name, snap)
		}
	}
	e := &rt.Entry{Reg: "a", Owner: 3, Val: "next election"}
	s.Write(e)
	snap, _ := s.Snapshot("a")
	if got := cells(t, s, "a", snap); e.Seq != 1 || len(got) != 1 || got[0] != *e {
		t.Fatalf("first write after Reset: seq %d, snapshot %+v", e.Seq, got)
	}
}

// TestAdoptedEntryIsNeverWritten: the store only ever reads an entry it
// adopted. The caller's side of that bargain is the live backend's: a
// one-entry payload per call, stamped by Write and then shared, unchanged,
// with the replicas it is propagated to — while the caller and any straggler
// keep reading it. Under -race a store write to an adopted entry is a
// reported race with the reader here; without it, a changed field is caught
// by comparison.
func TestAdoptedEntryIsNeverWritten(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	own, peers := New(nil), []*Store{New(nil), New(wire.AppendEntry)}
	const calls = 300
	handoff := make(chan []rt.Entry, calls) // every payload, so the writer never waits for the reader
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the caller and its stragglers, still reading every payload
		defer wg.Done()
		var kept [][]rt.Entry
		var want []rt.Entry
		for payload := range handoff {
			kept, want = append(kept, payload), append(want, payload[0])
			for i, p := range kept {
				if p[0] != want[i] {
					t.Errorf("payload %d changed after its hand-off: %+v, was %+v", i, p[0], want[i])
					return
				}
			}
		}
	}()
	for call := 1; call <= calls; call++ {
		payload := []rt.Entry{{Reg: "r", Owner: 7, Val: call}}
		own.Write(&payload[0])
		if payload[0].Seq != uint64(call) {
			t.Fatalf("call %d stamped seq %d", call, payload[0].Seq)
		}
		handoff <- payload
		for _, peer := range peers {
			wg.Add(1)
			go func() { // a replica's server goroutine
				defer wg.Done()
				peer.Merge(&payload[0])
				peer.Merge(&payload[0]) // the retransmission
				peer.Snapshot("r")
			}()
		}
		own.Merge(&payload[0]) // its own retransmission racing back in
		own.Snapshot("r")
	}
	close(handoff)
	wg.Wait()
	for _, s := range append(peers, own) {
		if e := s.Load("r", 7); e == nil || e.Seq != calls || e.Val != calls {
			t.Fatalf("final cell %+v, want seq and value %d", e, calls)
		}
	}
}

// TestSnapshotTagsAndHolders: an encoder store tags every encoding it
// builds with a name no other encoding carries — a rebuild after a winning
// merge draws a new one, a store without an encoder draws none — and a
// snapshot records each reader Hold names once, up to snapHolders of them,
// under concurrent Holds.
func TestSnapshotTagsAndHolders(t *testing.T) {
	plain := New(nil)
	plain.Merge(&rt.Entry{Reg: "r", Owner: 1, Seq: 1, Val: 1})
	if snap, _ := plain.Snapshot("r"); snap.Tag != 0 {
		t.Fatalf("a store without an encoder tagged its snapshot %d", snap.Tag)
	}
	s := New(wire.AppendEntry)
	s.Merge(&rt.Entry{Reg: "r", Owner: 1, Seq: 1, Val: 1})
	first, _ := s.Snapshot("r")
	if again, _ := s.Snapshot("r"); first.Tag == 0 || again.Tag != first.Tag {
		t.Fatalf("tags %d then %d for one published snapshot", first.Tag, again.Tag)
	}
	s.Merge(&rt.Entry{Reg: "r", Owner: 1, Seq: 2, Val: 1})
	second, _ := s.Snapshot("r")
	other := New(wire.AppendEntry)
	other.Merge(&rt.Entry{Reg: "r", Owner: 1, Seq: 1, Val: 1})
	twin, _ := other.Snapshot("r") // first's bytes, at first's version
	if second.Tag == first.Tag || twin.Tag == first.Tag || !bytes.Equal(twin.Enc, first.Enc) {
		t.Fatalf("tags %d, %d, %d: a new encoding reused a tag", first.Tag, second.Tag, twin.Tag)
	}

	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				second.Hold(uint64((g+i)%(snapHolders+1) + 1))
			}
		}()
	}
	wg.Wait()
	held := 0
	for id := uint64(1); id <= snapHolders+1; id++ {
		if second.Held(id) {
			held++
		}
	}
	seen := map[uint64]bool{}
	for i := range second.holders {
		id := second.holders[i].Load()
		if id == 0 || seen[id] {
			t.Fatalf("holders %v: a slot empty or a name twice", &second.holders)
		}
		seen[id] = true
	}
	if held != snapHolders || second.Held(snapHolders+2) || first.Held(1) {
		t.Fatalf("%d of %d names held; an unrecorded name reads held", held, snapHolders+1)
	}
}
