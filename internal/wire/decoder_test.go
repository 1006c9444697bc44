package wire

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/rt"
)

// statusView builds the body of a view over n owners, each holding a
// distinct priority status with an n-long ℓ list — the reply shape one
// collect decodes a quorum of.
func statusView(tb testing.TB, n int) []byte {
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
	frame, err := Encode(m)
	if err != nil {
		tb.Fatal(err)
	}
	return frame[PrefixSize(m.WireSize()):]
}

// TestDecoderSharesAcrossDecodes pins what interning is for: a second
// decode of the same bytes on one stream hands back the very same name and
// value storage, not equal copies.
func TestDecoderSharesAcrossDecodes(t *testing.T) {
	body := statusView(t, 8)
	var dec Decoder
	a, err := dec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	body[1]++ // another election (the byte after the kind), so the view memo stays out of it
	b, err := dec.Decode(body)
	if err != nil {
		t.Fatal(err)
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

// TestDecoderOwnsWhatItInterns: the read loops decode out of one reused
// buffer, so nothing a Decoder remembers may alias the bytes it was given.
// Scribble over the buffer after decoding, refill it with the same frame,
// and the table must still answer with the original values.
func TestDecoderOwnsWhatItInterns(t *testing.T) {
	pristine := statusView(t, 8)
	want, err := Decode(pristine)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), pristine...)
	var dec Decoder
	first, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("decoded message changed when its source buffer was overwritten:\n got  %+v\n want %+v", first, want)
	}
	// Same entries under another election: the view memo (keyed by election)
	// misses, so the values come from the intern tables.
	copy(buf, pristine)
	buf[1]++ // the election id, one byte after the kind
	want.Election++
	again, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Entries[0] == &first.Entries[0] {
		t.Fatal("the view memo served another election's view; the intern tables were not exercised")
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("interned values were corrupted by the overwritten buffer:\n got  %+v\n want %+v", again, want)
	}
}

// TestDecoderTablesStayBounded: 10⁵ distinct names and values through one
// Decoder never grow a table past its cap, and a value too long for the
// key bound is decoded but not remembered.
func TestDecoderTablesStayBounded(t *testing.T) {
	var dec Decoder
	for i := 0; i < 100_000; i++ {
		reg := fmt.Sprintf("r/%d", i)
		m := &Msg{Kind: KindPropagate, Reg: reg, Entries: []rt.Entry{{Reg: reg, Seq: 1, Val: 1<<20 + i}}}
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(frame[PrefixSize(m.WireSize()):])
		if err != nil {
			t.Fatal(err)
		}
		if got.Reg != reg || got.Entries[0].Val != 1<<20+i {
			t.Fatalf("decode %d returned %+v", i, got)
		}
		if len(dec.names) > internEntries || len(dec.vals) > internEntries {
			t.Fatalf("after %d distinct values: %d names, %d values interned (cap %d)", i+1, len(dec.names), len(dec.vals), internEntries)
		}
	}

	giant := make([]rt.ProcID, internKeyMax+1)
	m := &Msg{Kind: KindPropagate, Reg: "g", Entries: []rt.Entry{{Reg: "g", Seq: 1, Val: core.Status{Stat: core.HighPri, List: giant}}}}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	before := len(dec.vals)
	got, err := dec.Decode(frame[PrefixSize(m.WireSize()):])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries[0].Val.(core.Status).List) != len(giant) {
		t.Fatalf("giant status decoded to %d ids", len(got.Entries[0].Val.(core.Status).List))
	}
	for k := range dec.vals {
		if len(k) > internKeyMax {
			t.Fatalf("a %d-byte value was interned (key bound %d)", len(k), internKeyMax)
		}
	}
	if len(dec.vals) > before+1 {
		t.Fatalf("table grew from %d to %d on one decode", before, len(dec.vals))
	}
}

// viewBody encodes a one-entry view of reg in election, for the memo tests.
func viewBody(tb testing.TB, election uint64, reg string, val rt.Value) []byte {
	tb.Helper()
	m := &Msg{Kind: KindView, Election: election, Call: 1, From: 2, Reg: reg,
		Entries: []rt.Entry{{Reg: reg, Owner: 1, Seq: 1, Val: val}}}
	frame, err := Encode(m)
	if err != nil {
		tb.Fatal(err)
	}
	return frame[PrefixSize(m.WireSize()):]
}

// TestDecoderViewMemoHits pins what the memo is for and what it keys on: a
// repeated view tail hands back the very same entry array, whatever the
// header around it says; a different tail replaces it; and the same tail
// bytes under another register name or another election do not hit —
// Entry.Reg comes from the name, so the name is part of the identity.
func TestDecoderViewMemoHits(t *testing.T) {
	var dec Decoder
	decode := func(body []byte) *Msg {
		t.Helper()
		m, err := dec.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := decode(viewBody(t, 1, "sift/1", 1000))
	b := decode(viewBody(t, 1, "sift/1", 1000))
	if &a.Entries[0] != &b.Entries[0] {
		t.Fatal("a repeated view was rebuilt, not served from the memo")
	}
	other := decode(viewBody(t, 1, "sift/2", 1000)) // same tail bytes, another name
	if &other.Entries[0] == &a.Entries[0] || other.Entries[0].Reg != "sift/2" {
		t.Fatalf("the tail of sift/1 was served for sift/2: %+v", other.Entries[0])
	}
	if el := decode(viewBody(t, 2, "sift/1", 1000)); &el.Entries[0] == &a.Entries[0] {
		t.Fatal("another election's view was served from this one's slot")
	}
	changed := decode(viewBody(t, 1, "sift/1", 1001))
	if changed.Entries[0].Val != 1001 || a.Entries[0].Val != 1000 {
		t.Fatalf("a new tail was decoded into the old array: old %+v new %+v", a.Entries[0], changed.Entries[0])
	}
	if back := decode(viewBody(t, 1, "sift/1", 1000)); &back.Entries[0] == &a.Entries[0] {
		t.Fatal("the memo kept a tail it had replaced")
	}
	// Propagates are a server's to recycle: never memoized.
	pm := &Msg{Kind: KindPropagate, Reg: "sift/1", Entries: []rt.Entry{{Reg: "sift/1", Seq: 1, Val: 1000}}}
	frame, err := Encode(pm)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[PrefixSize(pm.WireSize()):]
	if p, q := decode(body), decode(body); &p.Entries[0] == &q.Entries[0] {
		t.Fatal("a repeated propagate was served from the memo")
	}
	if _, ok := dec.views[viewKey{pm.Election, pm.Reg}]; ok {
		t.Fatal("a propagate was remembered by the view memo")
	}
}

// TestDecoderViewMemoOwnsItsBytes: the memo compares the next view against
// bytes it remembered, and the read loops overwrite their buffer with every
// frame — so the remembered tail must be the table's own copy. Scribble
// over the buffer after a decode: the scribbled bytes must not hit (nor
// decode), and the pristine frame, read into the same buffer again, must.
func TestDecoderViewMemoOwnsItsBytes(t *testing.T) {
	pristine := statusView(t, 8)
	want, err := Decode(pristine)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), pristine...)
	var dec Decoder
	first, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	tail := buf[len(buf)-20:]
	for i := range tail {
		tail[i] = 0xFF
	}
	if m, err := dec.Decode(buf); err == nil {
		t.Fatalf("a scribbled tail was accepted (memo aliasing the read buffer?): %+v", m)
	}
	copy(buf, pristine)
	again, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Entries[0] != &first.Entries[0] {
		t.Fatal("the pristine frame missed the memo after the buffer was overwritten")
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("memoized view was corrupted by the overwritten buffer:\n got  %+v\n want %+v", again, want)
	}
}

// TestDecoderViewMemoStaysBounded: 10⁵ distinct registers, then 10⁵
// distinct tails of one register, never grow the memo past its cap or a
// slot past the tail bound, and a view too long for the bound is decoded
// but not remembered.
func TestDecoderViewMemoStaysBounded(t *testing.T) {
	var dec Decoder
	check := func(i int) {
		t.Helper()
		if len(dec.views) > viewEntries {
			t.Fatalf("after %d views: %d remembered (cap %d)", i+1, len(dec.views), viewEntries)
		}
		for k, vm := range dec.views {
			if len(vm.tail) > viewTailMax || cap(vm.tail) > 2*viewTailMax {
				t.Fatalf("slot %v holds a %d-byte tail in a %d-byte buffer (bound %d)", k, len(vm.tail), cap(vm.tail), viewTailMax)
			}
		}
	}
	for i := 0; i < 100_000; i++ {
		reg := fmt.Sprintf("r/%d", i)
		got, err := dec.Decode(viewBody(t, uint64(i%3), reg, 1<<20+i))
		if err != nil {
			t.Fatal(err)
		}
		if got.Entries[0].Reg != reg || got.Entries[0].Val != 1<<20+i {
			t.Fatalf("decode %d returned %+v", i, got)
		}
		check(i)
	}
	for i := 0; i < 100_000; i++ {
		got, err := dec.Decode(viewBody(t, 1, "one", 1<<20+i))
		if err != nil {
			t.Fatal(err)
		}
		if got.Entries[0].Val != 1<<20+i {
			t.Fatalf("tail %d returned %+v", i, got)
		}
		check(i)
	}

	giant := make([]rt.ProcID, viewTailMax)
	body := viewBody(t, 1, "giant", core.Status{Stat: core.HighPri, List: giant})
	for range 2 {
		got, err := dec.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Entries[0].Val.(core.Status).List) != len(giant) {
			t.Fatalf("oversized view: %d ids", len(got.Entries[0].Val.(core.Status).List))
		}
	}
	if _, ok := dec.views[viewKey{1, "giant"}]; ok {
		t.Fatalf("a %d-byte tail was remembered (bound %d)", len(body), viewTailMax)
	}
}
