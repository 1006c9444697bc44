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
	copy(buf, pristine)
	again, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
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
