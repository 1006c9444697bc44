package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/renaming"
	"repro/internal/rt"
)

// sampleValues covers every value kind the codec encodes, including the
// uvarint boundary cases.
func sampleValues() []rt.Value {
	big := renaming.NewNameSet(130)
	bigSet := big.With(1).With(64).With(65).With(130)
	return []rt.Value{
		nil,
		true,
		false,
		0,
		1,
		-1,
		63,
		64,
		-64,
		-65,
		1 << 30,
		-(1 << 30),
		"",
		"elect/door",
		core.Status{Stat: core.Commit},
		core.Status{Stat: core.LowPri, List: []rt.ProcID{0, 1, 2}},
		core.Status{Stat: core.HighPri, List: []rt.ProcID{127, 128, 300}},
		renaming.NewNameSet(1),
		bigSet,
	}
}

// sampleMsgs builds one message of every kind plus boundary variants.
func sampleMsgs(t *testing.T) []*Msg {
	t.Helper()
	var entries []rt.Entry
	for i, v := range sampleValues() {
		entries = append(entries, rt.Entry{Reg: "r", Owner: rt.ProcID(i * 17), Seq: uint64(i) * 129, Val: v})
	}
	return []*Msg{
		{Kind: KindAck},
		{Kind: KindAck, Election: 1 << 40, Call: 1 << 20, From: 300},
		{Kind: KindCollect, Reg: "elect/sift/3/pp"},
		{Kind: KindCollect, Election: 7, Call: 128, From: 127, Reg: ""},
		{Kind: KindPropagate, Reg: "r", Entries: entries[:1]},
		{Kind: KindPropagate, Election: 9, Call: 3, From: 2, Reg: "r", Entries: entries},
		{Kind: KindView, Reg: "r"},
		{Kind: KindView, Election: 2, Call: 99, From: 64, Reg: "r", Entries: entries},
		{Kind: KindBusy},
		{Kind: KindBusy, Election: 33, Call: 1 << 18, From: 4},
	}
}

// TestRoundTrip: decode(encode(x)) == x for every message kind and every
// value kind.
func TestRoundTrip(t *testing.T) {
	for i, m := range sampleMsgs(t) {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("msg %d: encode: %v", i, err)
		}
		body, n, err := SplitFrame(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("msg %d: split: %d of %d bytes, %v", i, n, len(frame), err)
		}
		got, err := Decode(body)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(got)) {
			t.Fatalf("msg %d: round trip mismatch:\n sent %+v\n got  %+v", i, m, got)
		}
	}
}

// normalize maps nil and empty entry slices together (the wire cannot
// distinguish them, and no caller does either) and drops the decoder's
// size memo, which hand-built messages lack by construction.
func normalize(m *Msg) *Msg {
	out := *m
	if len(out.Entries) == 0 {
		out.Entries = nil
	}
	out.size = 0
	return &out
}

// TestExactSizes: WireSize is the encoded body size, byte for byte, and
// Entry/Status/NameSet WireSize report their exact encoded cost — the
// contract the sim and live backends' bit-complexity accounting relies on.
func TestExactSizes(t *testing.T) {
	for i, m := range sampleMsgs(t) {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("msg %d: encode: %v", i, err)
		}
		body := m.WireSize()
		if got := len(frame); got != PrefixSize(body)+body {
			t.Fatalf("msg %d: frame is %d bytes, WireSize %d + prefix %d", i, got, body, PrefixSize(body))
		}
	}
	// Per-entry exactness: encode a view with and without each entry; the
	// size delta must equal Entry.WireSize.
	for i, v := range sampleValues() {
		e := rt.Entry{Reg: "r", Owner: rt.ProcID(i), Seq: uint64(i), Val: v}
		with := &Msg{Kind: KindView, Reg: "r", Entries: []rt.Entry{e}}
		without := &Msg{Kind: KindView, Reg: "r"}
		delta := with.WireSize() - without.WireSize()
		if delta != e.WireSize() {
			t.Fatalf("value %d (%T): entry delta %d != Entry.WireSize %d", i, v, delta, e.WireSize())
		}
		frame, err := Encode(with)
		if err != nil {
			t.Fatalf("value %d (%T): encode: %v", i, v, err)
		}
		if len(frame) != PrefixSize(with.WireSize())+with.WireSize() {
			t.Fatalf("value %d (%T): encoded %d bytes, sized %d", i, v, len(frame), with.WireSize())
		}
	}
}

// TestValueSizeMatchesEncoder: rt.ValueSize (used by Entry.WireSize without
// importing this package) equals the encoder's output for every codable
// value.
func TestValueSizeMatchesEncoder(t *testing.T) {
	for i, v := range sampleValues() {
		enc, err := appendValue(nil, v)
		if err != nil {
			t.Fatalf("value %d (%T): %v", i, v, err)
		}
		if len(enc) != rt.ValueSize(v) {
			t.Fatalf("value %d (%T): encoded %d bytes, ValueSize says %d", i, v, len(enc), rt.ValueSize(v))
		}
	}
}

// TestEncodeRejects: out-of-domain inputs fail loudly instead of producing
// unparseable frames.
func TestEncodeRejects(t *testing.T) {
	cases := []*Msg{
		{Kind: 0},
		{Kind: 99},
		{Kind: KindAck, From: -1},
		{Kind: KindPropagate, Reg: "a", Entries: []rt.Entry{{Reg: "b", Owner: 0, Seq: 1}}},
		{Kind: KindPropagate, Reg: "a", Entries: []rt.Entry{{Reg: "a", Owner: -2, Seq: 1}}},
		{Kind: KindPropagate, Reg: "a", Entries: []rt.Entry{{Reg: "a", Owner: 1, Seq: 1, Val: 3.14}}},
		{Kind: KindView, Reg: "a", Entries: []rt.Entry{{Reg: "a", Owner: 1, Seq: 1, Val: struct{}{}}}},
	}
	for i, m := range cases {
		if _, err := Encode(m); err == nil {
			t.Fatalf("case %d (%+v): encode accepted an out-of-domain message", i, m)
		}
	}
}

// TestDecodeRejectsCorrupt: truncations and tag corruption of valid frames
// error rather than panic or mis-decode silently.
func TestDecodeRejectsCorrupt(t *testing.T) {
	m := &Msg{Kind: KindPropagate, Election: 5, Call: 9, From: 3, Reg: "reg", Entries: []rt.Entry{
		{Reg: "reg", Owner: 1, Seq: 2, Val: core.Status{Stat: core.HighPri, List: []rt.ProcID{1, 2}}},
	}}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[PrefixSize(m.WireSize()):]
	for cut := 0; cut < len(body); cut++ {
		if _, err := Decode(body[:cut]); err == nil {
			t.Fatalf("decode accepted a frame truncated to %d of %d bytes", cut, len(body))
		}
	}
	if _, err := Decode(append(append([]byte{}, body...), 0)); err == nil {
		t.Fatal("decode accepted a frame with a trailing byte")
	}
}

// TestDecodeRejectsHostileLengths: declared counts engineered to overflow
// size arithmetic must error, not panic or allocate (regression for the
// name-set words*8 wrap).
func TestDecodeRejectsHostileLengths(t *testing.T) {
	// KindView frame claiming one entry whose value is a name-set of 2^61
	// words: words*8 wraps to 0 in naive checks.
	hostile := []byte{
		byte(KindView), 0, 0, 0, // election, call, from
		1, 'r', // reg "r"
		1,    // one entry
		0, 1, // owner 0, seq 1
		vNameSet,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, // uvarint 1<<61
	}
	if _, err := Decode(hostile); err == nil {
		t.Fatal("decoder accepted a 2^61-word name-set")
	}
}

// TestSplitFrame: frames split in place off a stream buffer, the TCP read
// loop's code path. A whole frame splits to its body, aliasing the input;
// every cut short of it, in the prefix or in the body, asks for more
// without error; frames back to back split one after another; and a prefix
// that is too long, overflows or claims more than MaxFrame is an error
// before any body byte arrives.
func TestSplitFrame(t *testing.T) {
	if PrefixSize(MaxFrame) != maxPrefix {
		t.Fatalf("maxPrefix is %d, PrefixSize(MaxFrame) %d", maxPrefix, PrefixSize(MaxFrame))
	}
	// A body over 127 bytes takes a two-byte prefix, so cuts land in it too.
	m := &Msg{Kind: KindCollect, Election: 1, Call: 2, From: 3, Reg: strings.Repeat("r", 200)}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	p := PrefixSize(m.WireSize())
	body, n, err := SplitFrame(frame)
	if err != nil || n != len(frame) || len(body) != m.WireSize() || &body[0] != &frame[p] {
		t.Fatalf("whole frame: %d-byte body, n %d of %d, %v; want the body in place", len(body), n, len(frame), err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if body, n, err := SplitFrame(frame[:cut]); body != nil || n != 0 || err != nil {
			t.Fatalf("cut at %d of %d: %d-byte body, n %d, %v; want need-more", cut, len(frame), len(body), n, err)
		}
	}
	if body, n, err := SplitFrame([]byte{0, byte(KindAck)}); err != nil || n != 1 || len(body) != 0 {
		t.Fatalf("zero-length body: %d-byte body, n %d, %v", len(body), n, err)
	}

	msgs := sampleMsgs(t)
	var stream []byte
	for _, m := range msgs {
		if stream, err = Append(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		body, n, err := SplitFrame(stream)
		if err != nil || n == 0 {
			t.Fatalf("frame %d: n %d, %v", i, n, err)
		}
		got, err := Decode(body)
		if err != nil || !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Fatalf("frame %d: mismatch (%v)", i, err)
		}
		stream = stream[n:]
	}

	for name, b := range map[string][]byte{
		"over-long prefix":   {0x80, 0x80, 0x80, 0x80, 0x00},
		"overflowing":        bytes.Repeat([]byte{0xff}, 11),
		"size over MaxFrame": binary.AppendUvarint(nil, MaxFrame+1),
	} {
		if _, n, err := SplitFrame(b); err == nil {
			t.Fatalf("%s: %x split as a %d-byte frame", name, b, n)
		}
	}
	if _, n, err := SplitFrame(binary.AppendUvarint(nil, MaxFrame)); n != 0 || err != nil {
		t.Fatalf("a MaxFrame prefix alone: n %d, %v; want need-more", n, err)
	}
}

// TestBatchRoundTrip: EncodeBatch ∘ DecodeFrames is the identity on every
// sub-message, for batches of every size including the single-message plain
// form.
func TestBatchRoundTrip(t *testing.T) {
	msgs := sampleMsgs(t)
	for count := 1; count <= len(msgs); count++ {
		frame, err := EncodeBatch(msgs[:count])
		if err != nil {
			t.Fatalf("count %d: encode: %v", count, err)
		}
		body, n, err := SplitFrame(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("count %d: split: %d of %d bytes, %v", count, n, len(frame), err)
		}
		got, err := DecodeFrames(nil, body)
		if err != nil {
			t.Fatalf("count %d: decode: %v", count, err)
		}
		if len(got) != count {
			t.Fatalf("count %d: decoded %d messages", count, len(got))
		}
		for i := range got {
			if !reflect.DeepEqual(normalize(msgs[i]), normalize(got[i])) {
				t.Fatalf("count %d: message %d mismatch:\n sent %+v\n got  %+v", count, i, msgs[i], got[i])
			}
		}
	}
}

// TestBatchFromPreEncodedFrames: AppendBatchFrame over concatenated Append
// outputs — the coalescing senders' zero-re-encode path — produces the same
// bytes as EncodeBatch.
func TestBatchFromPreEncodedFrames(t *testing.T) {
	msgs := sampleMsgs(t)[:3]
	var frames []byte
	var err error
	for _, m := range msgs {
		if frames, err = Append(frames, m); err != nil {
			t.Fatal(err)
		}
	}
	fast, err := AppendBatchFrame(nil, len(msgs), frames)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := EncodeBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, slow) {
		t.Fatalf("pre-encoded batch differs from EncodeBatch:\n fast %x\n slow %x", fast, slow)
	}
}

// TestBatchRejects: degenerate and hostile batches fail loudly — empty
// batches, singleton batch frames (singles travel plain), nested batches,
// truncated sub-frames and trailing bytes.
func TestBatchRejects(t *testing.T) {
	if _, err := EncodeBatch(nil); err == nil {
		t.Fatal("EncodeBatch accepted an empty batch")
	}
	if _, err := AppendBatchFrame(nil, 1, []byte{1, byte(KindAck)}); err == nil {
		t.Fatal("AppendBatchFrame accepted a singleton batch")
	}
	ack, err := Encode(&Msg{Kind: KindAck})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := AppendBatchFrame(nil, 2, append(append([]byte{}, ack...), ack...))
	if err != nil {
		t.Fatal(err)
	}
	batchBody := batch[1:] // single-byte prefix at this size
	if _, err := Decode(batchBody); err == nil {
		t.Fatal("Decode accepted a batch frame in single-message context")
	}
	cases := map[string][]byte{
		"count 0":           {byte(KindBatch), 0},
		"count 1":           append([]byte{byte(KindBatch), 1}, ack...),
		"truncated sub":     {byte(KindBatch), 2, 5, byte(KindAck)},
		"trailing bytes":    append(append([]byte{}, batchBody...), 0),
		"nested batch":      append(append([]byte{byte(KindBatch), 2}, batch...), ack...),
		"undeclared frames": batchBody[:len(batchBody)-len(ack)],
	}
	for name, body := range cases {
		if _, err := DecodeFrames(nil, body); err == nil {
			t.Fatalf("%s: DecodeFrames accepted a malformed batch %x", name, body)
		}
	}
}

// TestBufPool: buffers survive a get/put cycle empty, and oversized buffers
// are dropped rather than pinned.
func TestBufPool(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("GetBuf returned %d live bytes", len(b))
	}
	PutBuf(append(b, 1, 2, 3))
	if b2 := GetBuf(); len(b2) != 0 {
		t.Fatalf("pooled buffer came back with %d live bytes", len(b2))
	}
	PutBuf(make([]byte, maxPooledBuf+1)) // must not panic; silently dropped
}

// TestCompactness: the headline frames stay small — the codec's reason to
// exist. A doorway propagate (the hot message of every election) fits in a
// dozen-odd bytes.
func TestCompactness(t *testing.T) {
	door := &Msg{Kind: KindPropagate, Election: 1, Call: 1, From: 1, Reg: "elect/door",
		Entries: []rt.Entry{{Reg: "elect/door", Owner: 1, Seq: 1, Val: true}}}
	if s := door.WireSize(); s > 24 {
		t.Fatalf("doorway propagate costs %d bytes; the codec has bloated", s)
	}
	ack := &Msg{Kind: KindAck, Election: 1, Call: 1, From: 1}
	if s := ack.WireSize(); s > 8 {
		t.Fatalf("ack costs %d bytes; the codec has bloated", s)
	}
}

func ExampleMsg_WireSize() {
	m := &Msg{Kind: KindAck, Election: 1, Call: 1, From: 2}
	frame, _ := Encode(m)
	fmt.Println(m.WireSize(), len(frame))
	// Output: 5 6
}

// TestPeekReplyFromBoundsSender: the peeked sender id obeys the MaxID bound
// the full decoder enforces — reply filters hand it to code that indexes
// per-server tables, and an unbounded uvarint would wrap negative in the
// conversion to rt.ProcID.
func TestPeekReplyFromBoundsSender(t *testing.T) {
	header := func(from uint64) []byte {
		b := []byte{byte(KindAck), 1, 2} // kind, election, call
		return binary.AppendUvarint(b, from)
	}
	if _, call, from, ok := PeekReplyFrom(header(MaxID)); !ok || call != 2 || from != MaxID {
		t.Fatalf("PeekReplyFrom at MaxID = call %d from %d ok %v", call, from, ok)
	}
	for _, hostile := range []uint64{MaxID + 1, 1 << 63, 1<<64 - 1} {
		if _, _, from, ok := PeekReplyFrom(header(hostile)); ok {
			t.Fatalf("PeekReplyFrom accepted sender id %d as %d", hostile, from)
		}
	}
}
