// Package wire is the binary codec of the network subsystem: a compact,
// length-prefixed frame format for the quorum protocol's five message forms
// (propagate, collect, ack, view, and same — a view the collector already
// holds) and the register values the paper's algorithms propagate.
//
// The format is deliberately minimal — encoding/binary uvarints everywhere,
// one tag byte per value — because the paper's message complexity bound
// O(kn) counts *messages*, and the bit complexity of each is dominated by
// the register entries it carries. Every WireSizer in the repository
// (rt.Entry, core.Status, renaming.NameSet, the quorum-layer messages)
// reports the exact size this codec produces, so the sim backend's
// PayloadBytes statistic and the live backend's byte counters measure the
// same wire format that internal/transport actually puts on TCP sockets.
// See docs/WIRE.md for the byte-level layout.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"

	"repro/internal/core"
	"repro/internal/renaming"
	"repro/internal/rt"
)

// Kind tags a frame's protocol role.
type Kind uint8

// Frame kinds: the quorum protocol's request/reply message forms.
const (
	// KindPropagate pushes register entries to a server, which merges them
	// and answers with KindAck (the paper's "propagate, v").
	KindPropagate Kind = iota + 1
	// KindCollect requests a server's view of one register array; the
	// server answers with KindView (the paper's "collect, v"), or with
	// KindSame when the collector already holds the view the server would
	// send: the request's tag names it, or the server sent it in full
	// earlier on the same stream connection.
	KindCollect
	// KindAck acknowledges a KindPropagate.
	KindAck
	// KindView carries a register-array snapshot back to a collector,
	// tagged with the name the server gave that snapshot's encoding.
	KindView
	// KindBatch coalesces two or more messages into one frame: the hot
	// path's multi-op form. The body is a count followed by the standard
	// length-prefixed encoding of each sub-message, so a batch is the
	// concatenation of ordinary frames behind one header and senders can
	// assemble it from pre-encoded frames without re-encoding. Batches do
	// not nest, and a single message is always sent as a plain frame (the
	// canonical form the decoder enforces).
	KindBatch
	// KindBusy answers a KindPropagate the server refused to admit: the
	// election's shard is at its live-instance bound, or the server is
	// draining. It is shaped like an ack (header only, no entries) and is
	// an admission-control signal, not part of the quorum protocol — a
	// client that receives one inside its quorum sheds the election and
	// retries later (electd.BusyError).
	KindBusy
	// KindSame answers a KindCollect whose collector already holds the
	// server's current snapshot of the register array: the view is byte for
	// byte the one the server sent under the reply's tag before, so the
	// reply carries the tag and no entries (a conditional collect). Only a
	// collector that holds the entries sent under that tag can turn it back
	// into a view.
	KindSame
)

func (k Kind) String() string {
	switch k {
	case KindPropagate:
		return "propagate"
	case KindCollect:
		return "collect"
	case KindAck:
		return "ack"
	case KindView:
		return "view"
	case KindBatch:
		return "batch"
	case KindBusy:
		return "busy"
	case KindSame:
		return "same"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value kind tags. A register value is encoded as one tag byte followed by
// its kind-specific body.
const (
	vNil     = 0 // ⊥ (no body)
	vBool    = 1 // 1 byte, 0 or 1
	vInt     = 2 // zigzag uvarint
	vString  = 3 // uvarint length + bytes
	vStatus  = 4 // core.Status: 1 stat byte + uvarint count + count uvarint ids
	vNameSet = 5 // renaming.NameSet: uvarint word count + 8 little-endian bytes per word
)

// MaxFrame bounds a decoded frame body. Frames carry at most one register
// array (n entries of small values); anything near this bound is corrupt.
const MaxFrame = 1 << 24

// MaxID bounds every processor identifier on the wire (senders, entry
// owners, status-list members). Identifiers are array indices in [0, n);
// the bound keeps a hostile uvarint from overflowing the int-typed
// rt.ProcID.
const MaxID = 1<<31 - 1

// Msg is one protocol message: the decoded form of a frame body.
//
// Election multiplexes independent election instances over one shared
// server set — servers keep disjoint register state per election ID. Call
// correlates a reply with the request it answers; the requester chooses it
// and the server echoes it. From identifies the sender (the participant on
// requests, the answering server on replies). Tag is carried by collects,
// views and sames only (hasTag): on a view it names the snapshot encoding
// the entries were decoded from (0: untagged, as every datagram view is),
// on a collect only TagFull means something — send the view regardless —
// and a server treats any other value as 0, and on a same it names the
// view the collector holds. Reg names the
// register array and is carried once per message: the entries of a
// propagate or view all belong to it, and Entry.Reg is restored from it on
// decode.
type Msg struct {
	Kind     Kind
	Election uint64
	Call     uint64
	From     rt.ProcID
	Tag      uint64
	Reg      string
	Entries  []rt.Entry // KindPropagate payload / KindView snapshot

	// size memoizes the encoded body size for decoded messages: the
	// decoder accepts exactly canonical encodings, so the accepted body
	// length IS the wire size (an invariant the fuzzers pin), and the
	// reply routers' byte accounting needn't re-walk the entries. Zero
	// means "not decoded": WireSize computes. Mutating a decoded message
	// invalidates it. The one path that does so on purpose is electd's
	// router turning a same into the view it stands for: the memo then
	// keeps the size of what crossed the wire, which is what the byte
	// accounting wants.
	size int
}

// TagFull is the collect tag that asks for the full view unconditionally:
// a server answers it with the register array even when it believes the
// collector holds the current snapshot. A collector re-asks with it when a
// same reply names a view it no longer holds. No snapshot is ever tagged
// with it.
const TagFull = 1<<64 - 1

// hasTag reports whether messages of kind k carry a Tag on the wire.
func hasTag(k Kind) bool { return k == KindCollect || k == KindView || k == KindSame }

// WireSize returns the exact encoded size of the frame body (the length
// prefix adds PrefixSize of it on the wire). For messages produced by the
// decoder it is the accepted body length, answered without re-walking the
// entries.
func (m *Msg) WireSize() int {
	if m.size != 0 {
		return m.size
	}
	entryBytes := 0
	for _, e := range m.Entries {
		entryBytes += e.WireSize()
	}
	return m.BodySize(len(m.Entries), entryBytes)
}

// BodySize is the frame-body size of m's header fields with count entries
// of entryBytes encoded bytes in all, on the kinds that carry entries — the
// arithmetic of WireSize, for a sender that holds a view's entry count and
// byte sum without the message (a cached snapshot). m's own Entries are not
// read.
func (m *Msg) BodySize(count, entryBytes int) int {
	n := 1 + // kind
		rt.UvarintSize(m.Election) +
		rt.UvarintSize(m.Call) +
		rt.UvarintSize(uint64(m.From)) +
		rt.UvarintSize(uint64(len(m.Reg))) + len(m.Reg)
	if hasTag(m.Kind) {
		n += rt.UvarintSize(m.Tag)
	}
	if m.Kind == KindPropagate || m.Kind == KindView {
		n += rt.UvarintSize(uint64(count)) + entryBytes
	}
	return n
}

// PrefixSize returns the length of the uvarint frame prefix for a body of
// the given size.
func PrefixSize(body int) int { return rt.UvarintSize(uint64(body)) }

// Append encodes m as one frame (uvarint body length + body) onto dst and
// returns the extended slice. It fails on negative identifiers, on entries
// whose Reg differs from m.Reg, and on values outside the codec's domain. A
// Tag on a kind that carries none is not encoded.
func Append(dst []byte, m *Msg) ([]byte, error) {
	switch m.Kind {
	case KindPropagate, KindCollect, KindAck, KindView, KindBusy, KindSame:
	default:
		return dst, fmt.Errorf("wire: cannot encode unknown kind %d", m.Kind)
	}
	if m.From < 0 {
		return dst, fmt.Errorf("wire: negative sender id %d", m.From)
	}
	body := m.WireSize()
	if body > MaxFrame {
		return dst, fmt.Errorf("wire: frame body %d exceeds MaxFrame", body)
	}
	dst = binary.AppendUvarint(dst, uint64(body))
	start := len(dst)
	dst = append(dst, byte(m.Kind))
	dst = binary.AppendUvarint(dst, m.Election)
	dst = binary.AppendUvarint(dst, m.Call)
	dst = binary.AppendUvarint(dst, uint64(m.From))
	if hasTag(m.Kind) {
		dst = binary.AppendUvarint(dst, m.Tag)
	}
	dst = appendString(dst, m.Reg)
	if m.Kind == KindPropagate || m.Kind == KindView {
		dst = binary.AppendUvarint(dst, uint64(len(m.Entries)))
		for _, e := range m.Entries {
			if e.Reg != m.Reg {
				return dst, fmt.Errorf("wire: entry register %q differs from message register %q", e.Reg, m.Reg)
			}
			if e.Owner < 0 {
				return dst, fmt.Errorf("wire: negative entry owner %d", e.Owner)
			}
			dst = binary.AppendUvarint(dst, uint64(e.Owner))
			dst = binary.AppendUvarint(dst, e.Seq)
			var err error
			if dst, err = appendValue(dst, e.Val); err != nil {
				return dst, err
			}
		}
	}
	if got := len(dst) - start; got != body {
		// A WireSizer lied about its size; catching it here keeps the frame
		// stream parseable and the bit-accounting honest.
		return dst, fmt.Errorf("wire: encoded %d bytes but WireSize reported %d", got, body)
	}
	return dst, nil
}

// Encode returns m as one freshly allocated frame.
func Encode(m *Msg) ([]byte, error) {
	return Append(make([]byte, 0, PrefixSize(m.WireSize())+m.WireSize()), m)
}

// MaxBatch bounds the sub-message count of one batch frame. The coalescing
// senders batch at most one message per concurrent caller, so anything near
// this bound is corrupt.
const MaxBatch = 1 << 16

// AppendBatchFrame wraps count pre-encoded frames — the concatenation of
// count wire.Append outputs, each carrying its own length prefix — into one
// batch frame appended to dst. This is the coalescing senders' fast path:
// sub-frames are encoded once, at enqueue time, and batching adds only the
// header. count must be at least 2 (a single message travels as the plain
// frame it already is — the canonical form DecodeFrames enforces).
func AppendBatchFrame(dst []byte, count int, frames []byte) ([]byte, error) {
	dst, err := AppendBatchHeader(dst, count, len(frames))
	if err != nil {
		return dst, err
	}
	return append(dst, frames...), nil
}

// AppendBatchHeader appends the framing that turns count concatenated
// pre-encoded frames, size bytes in all, into one batch frame: the outer
// length prefix, the batch kind byte and the sub-frame count. The caller
// appends (or streams) the sub-frames themselves right after — the form
// write loops use to coalesce queued frames without copying them through
// an intermediate buffer.
func AppendBatchHeader(dst []byte, count, size int) ([]byte, error) {
	if count < 2 {
		return dst, fmt.Errorf("wire: batch of %d sub-frames (minimum 2; send singles plain)", count)
	}
	if count > MaxBatch {
		return dst, fmt.Errorf("wire: batch of %d sub-frames exceeds MaxBatch", count)
	}
	body := 1 + rt.UvarintSize(uint64(count)) + size
	if body > MaxFrame {
		return dst, fmt.Errorf("wire: batch body %d exceeds MaxFrame", body)
	}
	dst = binary.AppendUvarint(dst, uint64(body))
	dst = append(dst, byte(KindBatch))
	return binary.AppendUvarint(dst, uint64(count)), nil
}

// BatchableFrame reports whether an encoded frame may ride inside a batch:
// a well-formed plain frame, not itself a batch (batches do not nest).
// Malformed frames are not batchable either — they travel alone and sever
// the connection at the receiver, as corruption should.
func BatchableFrame(frame []byte) bool {
	size, n := binary.Uvarint(frame)
	return n > 0 && size >= 1 && size == uint64(len(frame)-n) && Kind(frame[n]) != KindBatch
}

// EncodeBatch returns msgs as one freshly allocated frame: a plain frame
// for a single message, a batch frame for two or more.
func EncodeBatch(msgs []*Msg) ([]byte, error) {
	switch len(msgs) {
	case 0:
		return nil, fmt.Errorf("wire: empty batch")
	case 1:
		return Encode(msgs[0])
	}
	var frames []byte
	for _, m := range msgs {
		var err error
		if frames, err = Append(frames, m); err != nil {
			return nil, err
		}
	}
	return AppendBatchFrame(nil, len(msgs), frames)
}

// DecodeFrames parses one frame body — plain or batch — and appends the
// decoded messages to dst: exactly one for a plain frame, the sub-messages
// in order for a batch. Like Decode it is canonical: batches of fewer than
// two sub-messages, nested batches, non-minimal sub-frame prefixes and
// trailing bytes are all rejected, so re-encoding the result (Append per
// message, AppendBatchFrame around them) reproduces the accepted bytes.
func DecodeFrames(dst []*Msg, body []byte) ([]*Msg, error) {
	err := ForEachFrame(body, func(sub []byte) error {
		m, err := Decode(sub)
		if err != nil {
			return err
		}
		dst = append(dst, m)
		return nil
	})
	return dst, err
}

// ForEachFrame walks one frame body's message bodies in order — the body
// itself for a plain frame, each sub-frame's body for a batch — calling fn
// on each and stopping at its first error. It is the streaming form of
// DecodeFrames: read loops decode-and-dispatch one message at a time, so a
// pre-decode filter consulted inside fn sees routing state that is current
// up to the previous message of the same batch. Frame boundaries are
// validated here (count bounds, sub-frame prefixes, trailing bytes); the
// message bodies only by whatever decoding fn chooses to do. The bodies
// passed to fn alias the input.
func ForEachFrame(body []byte, fn func(body []byte) error) error {
	if len(body) == 0 {
		return io.ErrUnexpectedEOF
	}
	if Kind(body[0]) != KindBatch {
		return fn(body)
	}
	d := decoder{b: body[1:]}
	count, err := d.uvarint()
	if err != nil {
		return err
	}
	if count < 2 {
		return fmt.Errorf("wire: batch of %d sub-frames (minimum 2; singles travel plain)", count)
	}
	if count > MaxBatch {
		return fmt.Errorf("wire: batch of %d sub-frames exceeds MaxBatch", count)
	}
	for i := uint64(0); i < count; i++ {
		size, err := d.uvarint()
		if err != nil {
			return err
		}
		if size > uint64(len(d.b)) {
			return fmt.Errorf("wire: sub-frame of %d bytes exceeds remaining %d", size, len(d.b))
		}
		sub := d.b[:size]
		d.b = d.b[size:]
		if err := fn(sub); err != nil {
			return err
		}
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after batch", len(d.b))
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendValue encodes one tagged register value.
func appendValue(dst []byte, v rt.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, vNil), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, vBool, b), nil
	case int:
		dst = append(dst, vInt)
		return binary.AppendUvarint(dst, rt.ZigZag(int64(x))), nil
	case string:
		return appendString(append(dst, vString), x), nil
	case core.Status:
		dst = append(dst, vStatus, byte(x.Stat))
		dst = binary.AppendUvarint(dst, uint64(len(x.List)))
		for _, id := range x.List {
			if id < 0 {
				return dst, fmt.Errorf("wire: negative processor id %d in status list", id)
			}
			dst = binary.AppendUvarint(dst, uint64(id))
		}
		return dst, nil
	case renaming.NameSet:
		dst = append(dst, vNameSet)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		for _, w := range x {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("wire: value type %T is outside the codec's domain", v)
	}
}

// decoder consumes one frame body.
type decoder struct {
	b []byte
}

func (d *decoder) uvarint() (uint64, error) {
	if len(d.b) > 0 && d.b[0] < 0x80 {
		// Single-byte values — almost every id, sequence number, count and
		// length on the hot path — skip the generic decoder.
		v := uint64(d.b[0])
		d.b = d.b[1:]
		return v, nil
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated or overlong uvarint")
	}
	if n > 1 && d.b[n-1] == 0 {
		// Reject non-minimal encodings (a zero terminator byte means the
		// value fit in fewer groups): the codec is canonical, so that
		// decode∘encode is the identity and WireSize always equals the
		// accepted body length. Checking the terminator is equivalent to
		// comparing n against UvarintSize(v), without recomputing it.
		return 0, fmt.Errorf("wire: non-canonical uvarint (%d bytes for %d)", n, v)
	}
	d.b = d.b[n:]
	return v, nil
}

// procID decodes one bounded processor identifier.
func (d *decoder) procID() (rt.ProcID, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > MaxID {
		return 0, fmt.Errorf("wire: processor id %d exceeds MaxID", v)
	}
	return rt.ProcID(v), nil
}

func (d *decoder) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	b := d.b[0]
	d.b = d.b[1:]
	return b, nil
}

// bytes consumes one length-prefixed byte string and returns it as a span
// of the input; callers copy what they keep.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, fmt.Errorf("wire: string length %d exceeds remaining %d bytes", n, len(d.b))
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s, nil
}

// value consumes one tagged register value. With build unset it only walks
// the encoding — the same validation, no allocation, a nil result — which
// is how sharedValue finds a value's byte span before looking it up; keeping
// both modes in one walk is what guarantees they accept exactly the same
// inputs.
func (d *decoder) value(build bool) (rt.Value, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case vNil:
		return nil, nil
	case vBool:
		b, err := d.byte()
		if err != nil {
			return nil, err
		}
		if b > 1 {
			return nil, fmt.Errorf("wire: bool byte %d", b)
		}
		if !build {
			return nil, nil
		}
		return b == 1, nil
	case vInt:
		u, err := d.uvarint()
		if err != nil || !build {
			return nil, err
		}
		return int(int64(u>>1) ^ -int64(u&1)), nil
	case vString:
		s, err := d.bytes()
		if err != nil || !build {
			return nil, err
		}
		return string(s), nil
	case vStatus:
		stat, err := d.byte()
		if err != nil {
			return nil, err
		}
		count, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if count > uint64(len(d.b)) { // every id takes ≥1 byte
			return nil, fmt.Errorf("wire: status list count %d exceeds remaining %d bytes", count, len(d.b))
		}
		var list []rt.ProcID
		if build && count > 0 {
			list = make([]rt.ProcID, count)
		}
		for i := uint64(0); i < count; i++ {
			id, err := d.procID()
			if err != nil {
				return nil, err
			}
			if build {
				list[i] = id
			}
		}
		if !build {
			return nil, nil
		}
		return core.Status{Stat: core.StatKind(stat), List: list}, nil
	case vNameSet:
		words, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if words > uint64(len(d.b))/8 { // divide, never multiply: words*8 could wrap
			return nil, fmt.Errorf("wire: name-set of %d words exceeds remaining %d bytes", words, len(d.b))
		}
		if !build {
			d.b = d.b[8*words:]
			return nil, nil
		}
		set := make(renaming.NameSet, words)
		for i := range set {
			set[i] = binary.LittleEndian.Uint64(d.b)
			d.b = d.b[8:]
		}
		return set, nil
	default:
		return nil, fmt.Errorf("wire: unknown value tag %d", tag)
	}
}

// Decode parses one frame body (without its length prefix). The returned
// message comes from the message pool: a terminal consumer — one after
// which nothing references the message — may hand it back with PutMsg,
// making the steady-state hot path allocate only the entry payloads;
// consumers that cannot tell simply let the GC have it. This is the
// cache-less form of DecodeShared: every name, value and entry array it
// returns is freshly allocated.
func Decode(body []byte) (*Msg, error) { return decodeMsg(body, false) }

func decodeMsg(body []byte, shared bool) (*Msg, error) {
	m := GetMsg()
	if err := m.decode(body, shared); err != nil {
		PutMsg(m)
		return nil, err
	}
	return m, nil
}

// decode parses body into m, through the process-wide decode cache when
// shared is set (see DecodeShared).
func (m *Msg) decode(body []byte, shared bool) error {
	d := decoder{b: body}
	kind, err := d.byte()
	if err != nil {
		return err
	}
	m.Kind = Kind(kind)
	switch m.Kind {
	case KindPropagate, KindCollect, KindAck, KindView, KindBusy, KindSame:
	case KindBatch:
		// Batches are containers, not messages: they never nest, and
		// DecodeFrames is the entry point that understands them.
		return fmt.Errorf("wire: batch frame in single-message context")
	default:
		return fmt.Errorf("wire: unknown frame kind %d", kind)
	}
	if m.Election, err = d.uvarint(); err != nil {
		return err
	}
	if m.Call, err = d.uvarint(); err != nil {
		return err
	}
	from, err := d.procID()
	if err != nil {
		return err
	}
	m.From = from
	if hasTag(m.Kind) {
		if m.Tag, err = d.uvarint(); err != nil {
			return err
		}
	}
	// A view's memo key is the register name and everything after it — not
	// the tag, which differs per server for byte-identical arrays.
	key := d.b
	reg, err := d.bytes()
	if err != nil {
		return err
	}
	// A non-empty view within the key bound is looked up whole before it
	// is walked (see DecodeShared). Its tail is at least two bytes: an
	// entry count of zero is the one-byte tail of an empty view.
	var memo *shard[[]rt.Entry]
	var h uint64
	if shared && m.Kind == KindView && len(d.b) > 1 && len(key) <= viewKeyMax {
		h = maphash.Bytes(cacheSeed, key)
		memo = &views[h%ViewMemoShards]
		if entries, ok := memo.get(h, key); ok {
			m.Reg, m.Entries, m.size = entries[0].Reg, entries, len(body)
			return nil
		}
	}
	if shared {
		m.Reg = internName(reg)
	} else {
		m.Reg = string(reg)
	}
	if m.Kind == KindPropagate || m.Kind == KindView {
		count, err := d.uvarint()
		if err != nil {
			return err
		}
		if count > uint64(len(d.b)) { // every entry takes ≥3 bytes
			return fmt.Errorf("wire: entry count %d exceeds remaining %d bytes", count, len(d.b))
		}
		if count > 0 {
			// Reuse the entry arena a RecycleMsg left behind when it is big
			// enough; elements in [len, cap) are zero by the recycle
			// contract, and the loop below overwrites [0, count) entirely.
			// An array the view memo is about to own is always fresh: the
			// memo outlives this message.
			if memo == nil && uint64(cap(m.Entries)) >= count {
				m.Entries = m.Entries[:count]
			} else {
				m.Entries = make([]rt.Entry, count)
			}
			for i := range m.Entries {
				owner, err := d.procID()
				if err != nil {
					return err
				}
				seq, err := d.uvarint()
				if err != nil {
					return err
				}
				var val rt.Value
				if shared {
					val, err = d.sharedValue()
				} else {
					val, err = d.value(true)
				}
				if err != nil {
					return err
				}
				m.Entries[i] = rt.Entry{Reg: m.Reg, Owner: owner, Seq: seq, Val: val}
			}
		}
		if memo != nil && len(d.b) == 0 && len(m.Entries) > 0 { // remember only what the whole decode accepted
			memo.put(h, key, m.Entries)
		}
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after frame body", len(d.b))
	}
	m.size = len(body)
	return nil
}

// maxPrefix is the length of the longest legal frame prefix:
// PrefixSize(MaxFrame).
const maxPrefix = 4

// SplitFrame splits the first length-prefixed frame off b in place: body
// is its body, aliasing b (capacity clipped, so appending to it cannot
// clobber what follows), and n the bytes the frame takes — prefix plus
// body. While b holds only the start of a frame, n is 0 and err nil: the
// caller reads more and splits again. The prefix is checked against
// MaxFrame but never sizes anything, so a stream reader grows its buffer
// with the bytes that actually arrive, never with what a peer claims it
// will send. A prefix longer than any legal one, or a size over MaxFrame,
// is an error. Decode and DecodeFrames copy everything they return, so the
// buffer is reusable as soon as a body has been decoded.
func SplitFrame(b []byte) (body []byte, n int, err error) {
	size, p := binary.Uvarint(b[:min(len(b), maxPrefix)])
	if p == 0 {
		if len(b) < maxPrefix {
			return nil, 0, nil // the prefix is still arriving
		}
		return nil, 0, fmt.Errorf("wire: frame length prefix longer than %d bytes", maxPrefix)
	}
	if size > MaxFrame {
		return nil, 0, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", size)
	}
	if n = p + int(size); len(b) < n {
		return nil, 0, nil // the body is still arriving
	}
	return b[p:n:n], n, nil
}

// AppendEntries encodes a register-array tail — the entry count followed
// by the entries — onto dst: exactly the bytes that follow the header of a
// propagate or view body. Servers cache this encoding per register array
// and splice it into reply frames with AppendReplyFrame, so a snapshot is
// walked once per mutation instead of once per reply. The same validation
// as Append applies.
func AppendEntries(dst []byte, reg string, entries []rt.Entry) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		var err error
		if dst, err = AppendEntry(dst, reg, &entries[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// AppendEntry encodes one entry of a register-array tail onto dst — its
// owner, sequence number and value, without the count prefix — holding it
// to the register reg the tail is for. A tail is its entry count followed by
// AppendEntry of each entry in owner order: what AppendEntries produces,
// and what a register store assembles cell by cell without gathering the
// entries into a slice first.
func AppendEntry(dst []byte, reg string, e *rt.Entry) ([]byte, error) {
	if e.Reg != reg {
		return dst, fmt.Errorf("wire: entry register %q differs from array register %q", e.Reg, reg)
	}
	if e.Owner < 0 {
		return dst, fmt.Errorf("wire: negative entry owner %d", e.Owner)
	}
	dst = binary.AppendUvarint(dst, uint64(e.Owner))
	dst = binary.AppendUvarint(dst, e.Seq)
	return appendValue(dst, e.Val)
}

// AppendReplyFrame assembles one reply frame — ack, busy, view or same —
// directly from header fields and a pre-encoded tail (AppendEntries output
// for a view, nil otherwise), bypassing Msg construction and entry
// re-encoding: the server hot path. tag is encoded for the kinds that carry
// one (hasTag). The result is byte-identical to Append of the equivalent
// message.
func AppendReplyFrame(dst []byte, kind Kind, election, call uint64, from rt.ProcID, tag uint64, reg string, tail []byte) ([]byte, error) {
	if from < 0 {
		return dst, fmt.Errorf("wire: negative sender id %d", from)
	}
	body := 1 +
		rt.UvarintSize(election) +
		rt.UvarintSize(call) +
		rt.UvarintSize(uint64(from)) +
		rt.UvarintSize(uint64(len(reg))) + len(reg) +
		len(tail)
	if hasTag(kind) {
		body += rt.UvarintSize(tag)
	}
	if body > MaxFrame {
		return dst, fmt.Errorf("wire: frame body %d exceeds MaxFrame", body)
	}
	dst = binary.AppendUvarint(dst, uint64(body))
	dst = append(dst, byte(kind))
	dst = binary.AppendUvarint(dst, election)
	dst = binary.AppendUvarint(dst, call)
	dst = binary.AppendUvarint(dst, uint64(from))
	if hasTag(kind) {
		dst = binary.AppendUvarint(dst, tag)
	}
	dst = appendString(dst, reg)
	return append(dst, tail...), nil
}

// PeekReplyFrom extracts the kind, call id and replying server's id from
// an encoded message body without decoding it — what a fault-injecting
// reply filter needs to sample per-link loss on the reply direction, and
// what reply dedup under retransmission keys on. ok is false when the
// header does not parse. Only the header is parsed and canonicality is not
// checked (the full decoder validates whatever the filter keeps) — except
// that the id is held to the MaxID bound the full decoder enforces, so the
// conversion to rt.ProcID cannot wrap (ok is false past it).
func PeekReplyFrom(body []byte) (k Kind, call uint64, from rt.ProcID, ok bool) {
	if len(body) == 0 {
		return 0, 0, 0, false
	}
	k = Kind(body[0])
	rest := body[1:]
	_, n := binary.Uvarint(rest) // election
	if n <= 0 {
		return k, 0, 0, false
	}
	rest = rest[n:]
	call, n = binary.Uvarint(rest)
	if n <= 0 {
		return k, call, 0, false
	}
	f, n := binary.Uvarint(rest[n:])
	if n <= 0 || f > MaxID {
		return k, call, 0, false
	}
	return k, call, rt.ProcID(f), true
}

// PeekView extracts the election, tag and register name of an encoded view
// body without decoding it — what a reply filter needs to tell whether the
// view is one its client already holds. reg aliases body. ok is false when
// body is not a view or its header does not parse; like PeekReplyFrom it
// checks no canonicality, the full decoder being the arbiter of validity.
func PeekView(body []byte) (election, tag uint64, reg []byte, ok bool) {
	if len(body) == 0 || Kind(body[0]) != KindView {
		return 0, 0, nil, false
	}
	rest := body[1:]
	var v [4]uint64 // election, call, from, tag
	for i := range v {
		x, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, 0, nil, false
		}
		v[i], rest = x, rest[n:]
	}
	size, n := binary.Uvarint(rest)
	if n <= 0 || size > uint64(len(rest)-n) {
		return 0, 0, nil, false
	}
	return v[0], v[3], rest[n : n+int(size)], true
}
