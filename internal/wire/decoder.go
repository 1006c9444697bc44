package wire

import "repro/internal/rt"

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
// A Decoder is not safe for concurrent use; the zero value is ready. A
// nil *Decoder decodes without tables, which is what package-level Decode
// does.
type Decoder struct {
	names internTable[string]
	vals  internTable[rt.Value]
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

// Decode parses one frame body like package-level Decode, serving register
// names and values from the decoder's tables where the stream has carried
// the same bytes before. Nothing it returns aliases body.
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
