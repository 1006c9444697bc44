package wire

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/renaming"
	"repro/internal/rt"
)

// seedCorpus returns encoded frames of every message kind (bodies, without
// the length prefix) — the checked-in starting points for the fuzzers,
// complemented by the files under testdata/fuzz.
func seedCorpus() [][]byte {
	msgs := []*Msg{
		{Kind: KindAck, Election: 1, Call: 2, From: 3},
		{Kind: KindCollect, Election: 1, Call: 7, From: 0, Reg: "elect/door"},
		{Kind: KindPropagate, Election: 4, Call: 1, From: 2, Reg: "elect/round",
			Entries: []rt.Entry{{Reg: "elect/round", Owner: 2, Seq: 5, Val: 3}}},
		{Kind: KindPropagate, Election: 1, Call: 1, From: 1, Reg: "pp",
			Entries: []rt.Entry{{Reg: "pp", Owner: 1, Seq: 1,
				Val: core.Status{Stat: core.HighPri, List: []rt.ProcID{0, 1, 129}}}}},
		{Kind: KindView, Election: 2, Call: 9, From: 6, Reg: "rename/contended",
			Entries: []rt.Entry{
				{Reg: "rename/contended", Owner: 0, Seq: 3, Val: renaming.NewNameSet(70).With(65)},
				{Reg: "rename/contended", Owner: 1, Seq: 1, Val: nil},
				{Reg: "rename/contended", Owner: 2, Seq: 2, Val: "str"},
				{Reg: "rename/contended", Owner: 3, Seq: 4, Val: true},
			}},
	}
	var out [][]byte
	for _, m := range msgs {
		frame, err := Encode(m)
		if err != nil {
			panic(err)
		}
		out = append(out, frame[PrefixSize(m.WireSize()):])
	}
	// Batch bodies: the multi-op frames the coalescing hot path produces.
	for _, batch := range [][]*Msg{msgs[:2], msgs} {
		frame, err := EncodeBatch(batch)
		if err != nil {
			panic(err)
		}
		_, n := binary.Uvarint(frame)
		out = append(out, frame[n:])
	}
	return out
}

// checkWarm holds the process-wide decode cache to the cache-less Decode
// on one body: the same accept/reject decision and the same message, on a
// first DecodeShared (which may fill the value table and the view memo),
// on a second (served from them — for a view, a whole-view memo hit), and
// on a third after every slot was evicted in place.
func checkWarm(t *testing.T, body []byte, cold *Msg, coldErr error) {
	t.Helper()
	for pass := 0; pass < 3; pass++ {
		if pass == 2 {
			evictAll()
		}
		warm, err := DecodeShared(body)
		if (err == nil) != (coldErr == nil) {
			t.Fatalf("pass %d: DecodeShared err=%v, cold Decode err=%v", pass, err, coldErr)
		}
		if err == nil && !reflect.DeepEqual(warm, cold) {
			t.Fatalf("pass %d: DecodeShared disagrees with cold Decode:\n warm %+v\n cold %+v", pass, warm, cold)
		}
	}
}

// FuzzDecode: no frame body, however corrupt, may panic the decoders
// (single-message Decode and the batch-aware DecodeFrames) or decode into
// messages that do not re-encode to the identical bytes — decode∘encode is
// the identity on both decoders' accepted sets, and the two decoders agree
// wherever their domains overlap. Every input also goes through the warm
// process-wide cache (already holding the seed corpus), which must agree
// with the cache-less Decode exactly; see checkWarm.
func FuzzDecode(f *testing.F) {
	corpus := seedCorpus()
	for _, body := range corpus {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindAck)})
	f.Add([]byte{byte(KindBatch), 2, 5, byte(KindAck), 0, 0, 0, 0, 5, byte(KindAck), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		m, mErr := Decode(body)
		ms, msErr := DecodeFrames(nil, body)
		for _, seed := range corpus {
			DecodeShared(seed) //nolint:errcheck // warming only; batch bodies are rejected
		}
		checkWarm(t, body, m, mErr)
		if mErr == nil {
			// Plain bodies: both decoders must accept and agree.
			if msErr != nil {
				t.Fatalf("Decode accepted what DecodeFrames rejected: %v", msErr)
			}
			if len(ms) != 1 || !reflect.DeepEqual(m, ms[0]) {
				t.Fatalf("decoders disagree on a plain body:\n Decode       %+v\n DecodeFrames %+v", m, ms)
			}
			frame, err := Encode(m)
			if err != nil {
				t.Fatalf("decoded message fails to re-encode: %v (%+v)", err, m)
			}
			if got := frame[PrefixSize(len(body)):]; !bytes.Equal(got, body) {
				t.Fatalf("decode∘encode not identity:\n in  %x\n out %x", body, got)
			}
			if m.WireSize() != len(body) {
				t.Fatalf("WireSize %d != accepted body length %d", m.WireSize(), len(body))
			}
			return
		}
		if msErr != nil {
			return // both rejected is fine; panicking is the bug being hunted
		}
		// Batch bodies: re-encoding the sub-messages must reproduce the
		// accepted bytes exactly (EncodeBatch emits the canonical form).
		if len(ms) < 2 {
			t.Fatalf("DecodeFrames accepted a non-batch body Decode rejected (%v) as %d messages", mErr, len(ms))
		}
		frame, err := EncodeBatch(ms)
		if err != nil {
			t.Fatalf("decoded batch fails to re-encode: %v", err)
		}
		if got := frame[PrefixSize(len(body)):]; !bytes.Equal(got, body) {
			t.Fatalf("batch decode∘encode not identity:\n in  %x\n out %x", body, got)
		}
	})
}

// checkedInDecodeCorpus returns the frame bodies checked in for FuzzDecode
// under testdata/fuzz/FuzzDecode, parsed from the fuzzing engine's corpus
// file format: a version line, then one []byte literal.
func checkedInDecodeCorpus(f *testing.F) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no checked-in FuzzDecode corpus (%v)", err)
	}
	var out [][]byte
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lit, okPrefix := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		lit, okSuffix := strings.CutSuffix(strings.TrimSpace(lit), ")")
		s, err := strconv.Unquote(lit)
		if !okPrefix || !okSuffix || err != nil {
			f.Fatalf("%s: not a one-[]byte corpus file (%v)", path, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzSplitFrame: no input, however hostile, panics the stream splitter;
// a split it accepts is exactly one frame — n is the prefix length plus
// the size the prefix declares, and the body is the bytes after the
// prefix, in place in the input — and it asks for more only while the
// declared frame is longer than the input. Seeded with the checked-in
// FuzzDecode bodies: framed, two frames back to back, and bare.
func FuzzSplitFrame(f *testing.F) {
	for _, body := range checkedInDecodeCorpus(f) {
		frame := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
		f.Add(frame)
		f.Add(append(append([]byte{}, frame...), frame...))
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		body, n, err := SplitFrame(b)
		size, p := binary.Uvarint(b)
		if err != nil || n == 0 {
			if body != nil || n != 0 {
				t.Fatalf("no frame (%v), yet a %d-byte body and n %d", err, len(body), n)
			}
			if err == nil && p > 0 && uint64(len(b)-p) >= size {
				t.Fatalf("asked for more with the whole %d-byte frame in %d bytes", p+int(size), len(b))
			}
			return
		}
		if p <= 0 || n != p+int(size) || n > len(b) {
			t.Fatalf("n %d for a %d-byte prefix declaring %d bytes, in %d bytes", n, p, size, len(b))
		}
		if uint64(len(body)) != size || (size > 0 && &body[0] != &b[p]) {
			t.Fatalf("the %d-byte body is not the %d bytes after the prefix, in place", len(body), size)
		}
	})
}

// FuzzRoundTripPropagate: structured fuzzing of the encoder — arbitrary
// field values (identifiers, register names, int payload) must round-trip
// exactly through encode/decode.
func FuzzRoundTripPropagate(f *testing.F) {
	f.Add(uint64(1), uint64(1), 0, "elect/door", uint64(1), 1)
	f.Add(uint64(1<<40), uint64(128), 300, "", uint64(0), -(1 << 40))
	f.Add(uint64(0), uint64(0), 0, "sift/12/pp", uint64(1<<63), 63)
	f.Fuzz(func(t *testing.T, election, call uint64, from int, reg string, seq uint64, val int) {
		if from < 0 {
			from = -from
		}
		m := &Msg{Kind: KindPropagate, Election: election, Call: call, From: rt.ProcID(from), Reg: reg,
			Entries: []rt.Entry{{Reg: reg, Owner: rt.ProcID(from), Seq: seq, Val: val}}}
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := Decode(frame[PrefixSize(m.WireSize()):])
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.WireSize() != m.WireSize() {
			t.Fatalf("decoded WireSize %d != computed %d", got.WireSize(), m.WireSize())
		}
		got.size = 0 // the decoder's size memo; hand-built messages lack it
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", m, got)
		}
	})
}
