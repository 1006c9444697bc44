package wire

import (
	"bytes"

	"repro/internal/rt"
)

// Decoder is the per-stream form of Decode: one value owned by one read
// loop, remembering what that stream decoded before. A collect reply
// carries a whole register array, and nearly every entry of it is
// byte-identical to one the same connection decoded a moment ago — so the
// decoder interns register names and encoded register values, keyed by
// their exact bytes, and hands the previously decoded value back instead
// of rebuilding (and reallocating) it. The codec is canonical, so
// identical bytes mean an identical value: no assumption about (owner,
// seq) uniqueness, and no election-lifecycle hook, is needed.
//
// Sharing contract: a name or value returned by a Decoder may be returned
// again — to other messages, other views, other participants — for as long
// as the table holds it. Interned values, including the backing array of a
// core.Status list or a renaming.NameSet, are immutable: consumers must
// never write through them, sort them in place or append to them. (The
// chan backend's entry adoption already imposes the same contract.)
//
// Above the per-value tables sits the view memo. The server serves one
// cached encoding of a register array until the next winning merge, and a
// round's participants collect a mostly quiescent array, so most views a
// stream carries repeat the previous view of the same register byte for
// byte. The decoder keeps, per (election, register name), the last view
// tail it decoded — entry count and entries, everything after the name —
// and the entry array it built from it; a view whose tail equals the
// remembered bytes gets that array back after one compare, with no walk.
// Byte equality suffices: the codec is canonical, the remembered tail was
// accepted whole (trailing-byte check included), and Entry.Reg is restored
// from the name, which is part of the key — so identical bytes under the
// same name are an identical view by construction. The election is in the
// key only for the hit rate: concurrent elections sharing a connection
// name the same registers.
//
// A memoized entry array is owned by the table and carries the same
// contract as the values: it may back any number of messages and views,
// and nobody writes, sorts or appends to it — so a consumer done with a
// view hands it back with PutMsg, never RecycleMsg, which would clear the
// array and re-arm it as a decode arena.
//
// A Decoder is not safe for concurrent use; the zero value is ready. A
// nil *Decoder decodes without tables, which is what package-level Decode
// does.
type Decoder struct {
	names internTable[string]
	vals  internTable[rt.Value]
	views viewTable
}

// Intern tables are bounded by two fixed constants: a table holds at most
// internEntries keys and is cleared when the next one would not fit, and a
// key longer than internKeyMax bytes is never remembered, so neither many
// distinct values nor one giant value can make a read loop's tables grow.
// The sizes are set by what a stream actually repeats: statuses are
// content-addressed, so the entries of one sift round's views share a
// handful of distinct encodings (every Commit is the same three bytes,
// most priority statuses carry the same ℓ list), and a table this small
// already serves over 95% of the values on the benchmark's TCP elections
// while the 2n read loops of an n=32 cluster together hold about 0.4 MB.
// A status list of up to ~250 one-byte ids fits the key bound; larger
// values decode as they always did.
const (
	internEntries = 32
	internKeyMax  = 256
)

// internTable maps encoded bytes to their decoded form.
type internTable[V any] map[string]V

// get looks key up without allocating (the compiler elides the string
// conversion in a map index expression).
func (t internTable[V]) get(key []byte) (V, bool) {
	v, ok := t[string(key)]
	return v, ok
}

// put remembers v under a copy of key, within the bounds above.
func (t *internTable[V]) put(key []byte, v V) {
	if len(key) > internKeyMax {
		return
	}
	if len(*t) >= internEntries {
		clear(*t)
	}
	if *t == nil {
		*t = make(internTable[V])
	}
	(*t)[string(key)] = v
}

// The view memo has the same two-constant shape: at most viewEntries
// registers, cleared when full, and a tail longer than viewTailMax bytes is
// decoded but never remembered. An election walks through a dozen register
// names, a few of them live at once, and a connection carries a handful of
// concurrent elections; a 32-entry status view is about 300 B on the wire
// and 1.5 KB decoded, so a full table holds about 15 KB.
const (
	viewEntries = 8
	viewTailMax = 4 << 10
)

// viewTable is the view memo: per register of an election, the last view
// tail decoded and the entries built from it. Both are the table's own —
// tail a copy of the stream's bytes, entries never handed out writable.
type viewTable map[viewKey]*viewMemo

type viewKey struct {
	election uint64
	reg      string
}

type viewMemo struct {
	tail    []byte
	entries []rt.Entry
}

// memoizes reports whether a message of this kind and tail goes through
// the view memo: views only (a server owns and recycles the one-entry
// arrays of the propagates it decodes), non-empty ones, within the bound.
func (dec *Decoder) memoizes(kind Kind, tail []byte) bool {
	return dec != nil && kind == KindView && len(tail) > 1 && len(tail) <= viewTailMax
}

// get returns the remembered entries when tail repeats the last view of
// (election, reg) byte for byte.
func (t viewTable) get(election uint64, reg string, tail []byte) ([]rt.Entry, bool) {
	if vm := t[viewKey{election, reg}]; vm != nil && bytes.Equal(vm.tail, tail) {
		return vm.entries, true
	}
	return nil, false
}

// put replaces what the table remembers for (election, reg). The tail is
// copied into the slot's own buffer; entries is adopted as is — an earlier
// array may still back views in flight, so it is dropped, never reused.
func (t *viewTable) put(election uint64, reg string, tail []byte, entries []rt.Entry) {
	key := viewKey{election, reg}
	vm := (*t)[key]
	if vm == nil {
		if len(*t) >= viewEntries {
			clear(*t)
		}
		if *t == nil {
			*t = make(viewTable)
		}
		vm = new(viewMemo)
		(*t)[key] = vm
	}
	vm.tail = append(vm.tail[:0], tail...)
	vm.entries = entries
}

// Decode parses one frame body like package-level Decode, serving register
// names and values — and whole views — from the decoder's tables where the
// stream has carried the same bytes before. Nothing it returns aliases
// body.
func (dec *Decoder) Decode(body []byte) (*Msg, error) {
	m := GetMsg()
	if err := m.decode(body, dec); err != nil {
		PutMsg(m)
		return nil, err
	}
	return m, nil
}

// name consumes a register name.
func (dec *Decoder) name(d *decoder) (string, error) {
	b, err := d.bytes()
	if err != nil || len(b) == 0 {
		return "", err
	}
	if dec == nil {
		return string(b), nil
	}
	if s, ok := dec.names.get(b); ok {
		return s, nil
	}
	s := string(b)
	dec.names.put(b, s)
	return s, nil
}

// value consumes a register value: walk it once without building anything
// to validate it and find its span, look the span up, and build only on a
// miss.
func (dec *Decoder) value(d *decoder) (rt.Value, error) {
	if dec == nil {
		return d.value(true)
	}
	start := d.b
	if _, err := d.value(false); err != nil {
		return nil, err
	}
	span := start[:len(start)-len(d.b)]
	// A span of one or two bytes is ⊥, a bool or a one-byte int: building
	// those does not touch the heap (Go boxes bools and small non-negative
	// ints statically), so a table slot would only crowd out values that do.
	intern := len(span) > 2
	if intern {
		if v, ok := dec.vals.get(span); ok {
			return v, nil
		}
	}
	v, err := (&decoder{b: span}).value(true)
	if intern && err == nil { // err is unreachable: the walk above accepted these bytes
		dec.vals.put(span, v)
	}
	return v, err
}
