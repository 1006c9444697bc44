package wire

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/rt"
)

// The cache is process-wide, so every test here starts from whatever the
// tests before it (and earlier runs of itself, under -count) left in it:
// each assertion holds for any prior contents, and a test that needs a
// view the memo has not seen draws a fresh sequence number.

// freshSeq returns a sequence number no earlier decode is likely to have
// put in a view.
func freshSeq() uint64 { return 1<<20 + uint64(rand.Int63n(1<<40)) }

// statusView builds the body of a view over n owners, each holding a
// distinct priority status with an n-long ℓ list — the reply shape one
// collect decodes a quorum of.
func statusView(tb testing.TB, n int) []byte {
	tb.Helper()
	return statusViewSeq(tb, n, 2)
}

// statusViewSeq is statusView with the last entry at sequence number seq,
// so distinct seqs give distinct tails over the same values.
func statusViewSeq(tb testing.TB, n int, seq uint64) []byte {
	tb.Helper()
	list := make([]rt.ProcID, n)
	for i := range list {
		list[i] = rt.ProcID(i)
	}
	m := &Msg{Kind: KindView, Election: 7, Call: 9, From: 3, Reg: "leaderelect/sift/3/status"}
	for i := 0; i < n; i++ {
		m.Entries = append(m.Entries, rt.Entry{Reg: m.Reg, Owner: rt.ProcID(i), Seq: 2,
			Val: core.Status{Stat: core.LowPri, List: list[:n-i]}})
	}
	m.Entries[n-1].Seq = seq
	return bodyOf(tb, m)
}

// bodyOf encodes m and returns its frame body.
func bodyOf(tb testing.TB, m *Msg) []byte {
	tb.Helper()
	frame, err := Append(nil, m)
	if err != nil {
		tb.Fatal(err)
	}
	return frame[PrefixSize(m.WireSize()):]
}

func decodeShared(tb testing.TB, body []byte) *Msg {
	tb.Helper()
	m, err := DecodeShared(body)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// memoized reports whether the view memo holds body's key — its register
// name and everything after it.
func memoized(body []byte) bool {
	d := decoder{b: body[1:]}
	for range 3 { // election, call, from
		d.uvarint() //nolint:errcheck // the callers' bodies are well formed
	}
	h := maphash.Bytes(cacheSeed, d.b)
	s := &views[h%ViewMemoShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.find(h, d.b) >= 0
}

// memoCounts sums the view memo's counters over its shards.
func memoCounts() (hits, misses int64) {
	for i := range ViewMemoShards {
		h, m := ViewMemoCounts(i)
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// TestDecoderSharesAcrossDecodes pins what interning is for: a second
// decode of the same names and values — here inside a view the memo has
// not seen, so it is walked — hands back the very same name and value
// storage, not equal copies, whichever goroutine decoded them first.
func TestDecoderSharesAcrossDecodes(t *testing.T) {
	first := statusViewSeq(t, 8, freshSeq())
	var a *Msg
	var err error
	done := make(chan struct{})
	go func() { // another read loop
		defer close(done)
		a, err = DecodeShared(first)
	}()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	b := decodeShared(t, statusViewSeq(t, 8, freshSeq()))
	if &a.Entries[0] == &b.Entries[0] {
		t.Fatal("two different tails were served one entry array")
	}
	if unsafe.StringData(a.Reg) != unsafe.StringData(b.Reg) {
		t.Fatal("register name was not interned across decodes")
	}
	for i := range a.Entries {
		la, lb := a.Entries[i].Val.(core.Status).List, b.Entries[i].Val.(core.Status).List
		if &la[0] != &lb[0] {
			t.Fatalf("entry %d: status list was rebuilt, not shared", i)
		}
	}
}

// TestDecoderOwnsWhatItInterns: the read loops decode out of reused
// buffers, so nothing the cache remembers may alias the bytes it was
// given. Scribble over the buffer after decoding, refill it with the same
// frame under another election — a memo hit, since the election is not
// part of a view's identity — and then with a changed tail, a memo miss
// whose values come from the value table: both must still answer with the
// original values.
func TestDecoderOwnsWhatItInterns(t *testing.T) {
	pristine := statusViewSeq(t, 8, freshSeq())
	want, err := Decode(pristine)
	if err != nil {
		t.Fatal(err)
	}
	buf := append(make([]byte, 0, 2*len(pristine)), pristine...) // room for the changed frame too
	first := decodeShared(t, buf)
	for i := range buf {
		buf[i] = 0xFF
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("decoded message changed when its source buffer was overwritten:\n got  %+v\n want %+v", first, want)
	}
	copy(buf, pristine)
	buf[1]++ // the election id, one byte after the kind
	want.Election++
	again := decodeShared(t, buf)
	if &again.Entries[0] != &first.Entries[0] {
		t.Fatal("the same view under another election was rebuilt, not served from the memo")
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("memoized view was corrupted by the overwritten buffer:\n got  %+v\n want %+v", again, want)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	changed := statusViewSeq(t, 8, freshSeq())
	buf = append(buf[:0], changed...)
	want, err = Decode(changed)
	if err != nil {
		t.Fatal(err)
	}
	third := decodeShared(t, buf)
	if &third.Entries[0] == &first.Entries[0] {
		t.Fatal("a changed tail was served the old array; the value table was not exercised")
	}
	if !reflect.DeepEqual(third, want) {
		t.Fatalf("interned values were corrupted by the overwritten buffer:\n got  %+v\n want %+v", third, want)
	}
}

// checkCacheBounds fails if any slot of the three tables holds a key past
// its bound, or a key buffer more than twice that (what append may grow a
// reused buffer to).
func checkCacheBounds(t *testing.T, after string) {
	t.Helper()
	for i := range views {
		s := &views[i]
		s.mu.Lock()
		for j, k := range s.key {
			if len(k) > viewKeyMax || cap(k) > 2*viewKeyMax {
				t.Fatalf("after %s: view shard %d slot %d holds a %d-byte key in a %d-byte buffer (bound %d)", after, i, j, len(k), cap(k), viewKeyMax)
			}
		}
		s.mu.Unlock()
	}
	for i := range values {
		s := &values[i]
		s.mu.Lock()
		for j, k := range s.key {
			if len(k) > internKeyMax || cap(k) > 2*internKeyMax {
				t.Fatalf("after %s: value shard %d slot %d holds a %d-byte key in a %d-byte buffer (bound %d)", after, i, j, len(k), cap(k), internKeyMax)
			}
		}
		s.mu.Unlock()
	}
	for i := range names {
		if s := names[i].Load(); s != nil && len(*s) > internKeyMax {
			t.Fatalf("after %s: name slot %d holds a %d-byte name (bound %d)", after, i, len(*s), internKeyMax)
		}
	}
}

// TestDecoderTablesStayBounded: 10⁵ distinct names and values decode
// correctly without any slot holding more than its bound — the tables are
// fixed arrays, so the slot count cannot grow — and a value too long for
// the key bound is decoded but not remembered.
func TestDecoderTablesStayBounded(t *testing.T) {
	for i := 0; i < 100_000; i++ {
		reg := fmt.Sprintf("r/%d", i)
		m := &Msg{Kind: KindPropagate, Reg: reg, Entries: []rt.Entry{{Reg: reg, Seq: 1, Val: 1<<20 + i}}}
		got := decodeShared(t, bodyOf(t, m))
		if got.Reg != reg || got.Entries[0].Val != 1<<20+i {
			t.Fatalf("decode %d returned %+v", i, got)
		}
		RecycleMsg(got)
	}
	checkCacheBounds(t, "10⁵ distinct names and values")

	giant := make([]rt.ProcID, internKeyMax+1)
	m := &Msg{Kind: KindPropagate, Reg: "g", Entries: []rt.Entry{{Reg: "g", Seq: 1, Val: core.Status{Stat: core.HighPri, List: giant}}}}
	body := bodyOf(t, m)
	var lists [2][]rt.ProcID
	for i := range lists {
		got := decodeShared(t, body)
		if lists[i] = got.Entries[0].Val.(core.Status).List; len(lists[i]) != len(giant) {
			t.Fatalf("giant status decoded to %d ids", len(lists[i]))
		}
	}
	if &lists[0][0] == &lists[1][0] {
		t.Fatalf("a value of more than %d bytes was remembered", internKeyMax)
	}
	checkCacheBounds(t, "a giant value")
}

// viewBody encodes a one-entry view of reg in election, for the memo tests.
func viewBody(tb testing.TB, election uint64, reg string, val rt.Value) []byte {
	tb.Helper()
	return bodyOf(tb, &Msg{Kind: KindView, Election: election, Call: 1, From: 2, Reg: reg,
		Entries: []rt.Entry{{Reg: reg, Owner: 1, Seq: 1, Val: val}}})
}

// TestDecoderViewMemoHits pins what the memo is for and what it keys on: a
// repeated view hands back the very same entry array, whatever the header
// around it says — another election, another call, another sender; the
// same tail bytes under another register name do not hit (Entry.Reg comes
// from the name, so the name is part of the identity); a different tail
// gets its own array and leaves the first one served. The hit and miss
// counters count each lookup once; propagates never touch the memo.
func TestDecoderViewMemoHits(t *testing.T) {
	base := int(freshSeq())
	hits0, misses0 := memoCounts()
	a := decodeShared(t, viewBody(t, 1, "sift/1", base))
	b := decodeShared(t, viewBody(t, 2, "sift/1", base))
	if &a.Entries[0] != &b.Entries[0] || b.Election != 2 {
		t.Fatal("a repeated view under another election was rebuilt, not served from the memo")
	}
	if hits, misses := memoCounts(); hits-hits0 != 1 || misses-misses0 != 1 {
		t.Fatalf("one miss and one hit counted as %d misses, %d hits", misses-misses0, hits-hits0)
	}
	other := decodeShared(t, viewBody(t, 1, "sift/2", base)) // same tail bytes, another name
	if &other.Entries[0] == &a.Entries[0] || other.Entries[0].Reg != "sift/2" || other.Reg != "sift/2" {
		t.Fatalf("the tail of sift/1 was served for sift/2: %+v", other.Entries[0])
	}
	changed := decodeShared(t, viewBody(t, 1, "sift/1", base+1))
	if changed.Entries[0].Val != base+1 || a.Entries[0].Val != base {
		t.Fatalf("a new tail was decoded into the old array: old %+v new %+v", a.Entries[0], changed.Entries[0])
	}
	if back := decodeShared(t, viewBody(t, 3, "sift/1", base)); &back.Entries[0] != &a.Entries[0] {
		t.Fatal("a second tail of the register displaced the first")
	}
	// Propagates are a server's to recycle: never memoized.
	body := bodyOf(t, &Msg{Kind: KindPropagate, Reg: "sift/1", Entries: []rt.Entry{{Reg: "sift/1", Seq: 1, Val: base + 2}}})
	hits0, misses0 = memoCounts()
	if p, q := decodeShared(t, body), decodeShared(t, body); &p.Entries[0] == &q.Entries[0] {
		t.Fatal("a repeated propagate was served from the memo")
	}
	if memoized(body) {
		t.Fatal("a propagate was remembered by the view memo")
	}
	if hits, misses := memoCounts(); hits != hits0 || misses != misses0 {
		t.Fatalf("propagates counted as %d memo misses, %d hits", misses-misses0, hits-hits0)
	}
}

// TestDecoderViewMemoOwnsItsBytes: the memo compares the next view against
// bytes it remembered, and the read loops overwrite their buffer with every
// frame — so the remembered key must be the memo's own copy. Scribble
// over the buffer after a decode: the scribbled bytes must not hit (nor
// decode), and the pristine frame, read into the same buffer again, must.
func TestDecoderViewMemoOwnsItsBytes(t *testing.T) {
	pristine := statusViewSeq(t, 8, 60)
	want, err := Decode(pristine)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), pristine...)
	first := decodeShared(t, buf)
	tail := buf[len(buf)-20:]
	for i := range tail {
		tail[i] = 0xFF
	}
	if m, err := DecodeShared(buf); err == nil {
		t.Fatalf("a scribbled tail was accepted (memo aliasing the read buffer?): %+v", m)
	}
	copy(buf, pristine)
	again := decodeShared(t, buf)
	if &again.Entries[0] != &first.Entries[0] {
		t.Fatal("the pristine frame missed the memo after the buffer was overwritten")
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("memoized view was corrupted by the overwritten buffer:\n got  %+v\n want %+v", again, want)
	}
}

// TestDecoderViewMemoStaysBounded: 10⁵ distinct registers, then 10⁵
// distinct tails of one register, decode correctly without any slot
// holding a key past the bound, and a view too long for the bound is
// decoded but not remembered.
func TestDecoderViewMemoStaysBounded(t *testing.T) {
	for i := 0; i < 100_000; i++ {
		reg := fmt.Sprintf("r/%d", i)
		got := decodeShared(t, viewBody(t, uint64(i%3), reg, 1<<20+i))
		if got.Entries[0].Reg != reg || got.Entries[0].Val != 1<<20+i {
			t.Fatalf("decode %d returned %+v", i, got)
		}
	}
	checkCacheBounds(t, "10⁵ distinct registers")
	for i := 0; i < 100_000; i++ {
		got := decodeShared(t, viewBody(t, 1, "one", 1<<20+i))
		if got.Entries[0].Val != 1<<20+i {
			t.Fatalf("tail %d returned %+v", i, got)
		}
	}
	checkCacheBounds(t, "10⁵ distinct tails")

	body := viewBody(t, 1, "giant", core.Status{Stat: core.HighPri, List: make([]rt.ProcID, viewKeyMax)})
	var arrays [2][]rt.Entry
	for i := range arrays {
		got := decodeShared(t, body)
		if len(got.Entries[0].Val.(core.Status).List) != viewKeyMax {
			t.Fatalf("oversized view: %d ids", len(got.Entries[0].Val.(core.Status).List))
		}
		arrays[i] = got.Entries
	}
	if &arrays[0][0] == &arrays[1][0] || memoized(body) {
		t.Fatalf("a %d-byte view was remembered (bound %d)", len(body), viewKeyMax)
	}
	checkCacheBounds(t, "a giant view")
}

// TestSharedCacheTorture races the process-wide cache the way a busy
// process does: eight goroutines, each standing for one read loop, decode
// views, propagates and values drawn from one small shared pool of bodies
// — small enough that most decodes hit, large enough that shards evict,
// and shared, so two loops often miss on the same key and put it at once.
// Every decoded message must equal the cache-less Decode of its body, and
// every view array a loop retained must still read as it did when decoded,
// whatever the memo did with its slot since. Views go back with PutMsg and
// propagates with RecycleMsg, as the electd client and server release
// them, so an array the memo handed out that ever became a decode arena
// would be caught changing. Run under -race (CI pins -count 10).
func TestSharedCacheTorture(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	// 400 distinct statuses: more than the value table's slots, so values
	// evict too. Each view carries 1–8 of them under one of 6 names; with
	// 160 views over the memo's 64 slots, most lookups still find their
	// shard warm.
	vals := make([]rt.Value, 400)
	for i := range vals {
		list := make([]rt.ProcID, 1+i%12)
		for j := range list {
			list[j] = rt.ProcID(i + j)
		}
		vals[i] = core.Status{Stat: core.StatKind(i % 4), List: list}
	}
	rng := rand.New(rand.NewSource(1))
	var bodies [][]byte
	for i := 0; i < 160; i++ {
		reg := fmt.Sprintf("torture/%d", i%6)
		m := &Msg{Kind: KindView, Election: uint64(i % 5), Call: uint64(i), From: rt.ProcID(i % 7), Reg: reg}
		for o := 0; o < 1+i%8; o++ {
			m.Entries = append(m.Entries, rt.Entry{Reg: reg, Owner: rt.ProcID(o), Seq: uint64(1 + rng.Intn(3)), Val: vals[rng.Intn(len(vals))]})
		}
		bodies = append(bodies, bodyOf(t, m))
	}
	for i := 0; i < 80; i++ {
		reg := fmt.Sprintf("torture/%d", i%6)
		bodies = append(bodies, bodyOf(t, &Msg{Kind: KindPropagate, Election: uint64(i % 5), Call: uint64(i), From: rt.ProcID(i % 7), Reg: reg,
			Entries: []rt.Entry{{Reg: reg, Owner: rt.ProcID(i % 7), Seq: uint64(1 + i%3), Val: vals[rng.Intn(len(vals))]}}}))
	}
	want := make([]*Msg, len(bodies))
	for i, body := range bodies {
		var err error
		if want[i], err = Decode(body); err != nil {
			t.Fatal(err)
		}
	}

	const loops, decodes, retain = 8, 4000, 32
	hits0, misses0 := memoCounts()
	var wg sync.WaitGroup
	errs := make(chan error, loops)
	for g := 0; g < loops; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			type held struct {
				entries []rt.Entry
				want    []rt.Entry
			}
			var kept []held
			check := func(h held) error {
				if !reflect.DeepEqual(h.entries, h.want) {
					return fmt.Errorf("a retained view array changed:\n now  %+v\n want %+v", h.entries, h.want)
				}
				return nil
			}
			for i := 0; i < decodes; i++ {
				k := rng.Intn(len(bodies))
				got, err := DecodeShared(bodies[k])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[k]) {
					errs <- fmt.Errorf("body %d decoded to\n %+v\nwant\n %+v", k, got, want[k])
					return
				}
				if got.Kind == KindPropagate {
					RecycleMsg(got)
					continue
				}
				h := held{got.Entries, want[k].Entries}
				PutMsg(got)
				if len(kept) < retain {
					kept = append(kept, h)
				} else {
					j := rng.Intn(retain)
					if err := check(kept[j]); err != nil {
						errs <- err
						return
					}
					kept[j] = h
				}
			}
			for _, h := range kept {
				if err := check(h); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g + 2))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkCacheBounds(t, "the torture run")
	hits, misses := memoCounts()
	t.Logf("view memo: %d hits, %d misses", hits-hits0, misses-misses0)
	if hits == hits0 || misses-misses0 < 160 {
		t.Fatal("the run did not both hit and evict: the pool of bodies no longer fits the memo's geometry")
	}
}

// evictAll empties every slot of the three tables in place — a view or
// value slot keeps its key buffer, as a real eviction does — so the next
// decode of anything misses.
func evictAll() {
	for i := range views {
		views[i].evict()
	}
	for i := range values {
		values[i].evict()
	}
	for i := range names {
		names[i].Store(nil)
	}
}

func (s *shard[V]) evict() {
	s.mu.Lock()
	var zero V
	for i := range s.hash {
		s.hash[i], s.key[i], s.val[i] = 0, s.key[i][:0], zero
	}
	s.mu.Unlock()
}
