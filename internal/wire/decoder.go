package wire

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/rt"
)

// DecodeShared is Decode through the process-wide decode cache: the form
// every read loop uses. A collect returns the register array of ⌊n/2⌋+1
// replicas, and once a propagate has landed those replicas serve the same
// cells — so one client process receives the same view bytes from many
// connections, and nearly every entry of a new view is byte-identical to
// one decoded a moment ago. The cache remembers three things, each keyed by
// its exact encoded bytes:
//
//   - whole views, keyed by the register name plus the tail after it (entry
//     count and entries): a repeat gets the remembered entry array back
//     after one hash and one compare, with no walk;
//   - register values, keyed by their encoding: a view the cache has not
//     seen, and every propagate, builds only the values it has not seen;
//   - register names.
//
// The codec is canonical, so identical bytes are an identical value: no
// assumption about (owner, seq) uniqueness, about which election or which
// connection a frame came from, or about when an election ends. In
// particular the election is not part of a view's key — Entry.Reg is
// restored from the name, which is, so identical bytes under the same name
// are an identical view by construction. A miss still walks and validates
// the whole body, and only what the whole decode accepted is remembered; a
// hit requires exact byte equality with those remembered bytes.
//
// Sharing contract: a name, value or entry array returned by DecodeShared
// may be returned again — to other messages, other connections, other
// participants — for as long as the cache holds it. They are immutable:
// consumers must never write through them, sort them in place or append to
// them (including the backing array of a core.Status list or a
// renaming.NameSet; the chan backend's entry adoption imposes the same
// contract). A consumer done with a view hands it back with PutMsg, never
// RecycleMsg, which would clear the array and re-arm it as a decode arena.
// Propagates are never remembered whole: a server owns the entry array of
// a propagate it decodes and recycles it with the message.
//
// Nothing DecodeShared returns aliases body.
func DecodeShared(body []byte) (*Msg, error) { return decodeMsg(body, true) }

// The view memo: ViewMemoShards × cacheWays = 64 slots, a key (name + tail)
// longer than viewKeyMax bytes decoded but never remembered. Measured on
// the benchmark's TCP workloads (2-core host, 8 s runs), 64 slots serve
// 99.3 % of the memoizable views on solo-tcp-n32 and 97.9 % on
// load-tcp-n16-c4, where a memo per connection served 86.6 % and 77.7 %;
// 32 and 128 slots measured the same within 0.2 points. A 32-entry status
// view is ≈300 B on the wire and ≈1.5 KB decoded, so a full memo holds
// ≈120 KB. The bound, whatever peers send: 64 slots of < 8 KiB of key
// buffer plus the entries decoded from one ≤ 4 KiB tail (≤ 1365 entries,
// ≈100 KiB with their values), ≈6.5 MiB. ViewMemoShards is exported for
// the metrics that count the memo's hits (ViewMemoCounts).
const (
	ViewMemoShards = 8
	viewKeyMax     = 4 << 10
)

// The value table has valueShards × cacheWays = 256 slots, and a value
// longer than internKeyMax bytes is decoded but never remembered (a status
// list of up to ~250 one-byte ids fits). Statuses are content-addressed,
// so one sift round's entries share a handful of distinct encodings: on
// the same runs 256 slots serve 99.8 % and 99.7 % of the value lookups
// (tables per connection: 94.9 % and 92.5 %; 128 and 512 slots: within
// 0.2 points), and hold at most 256 × (< 512 B of key + ≤ 2 KiB of
// value). The name table is nameSlots direct-mapped slots: those runs
// missed it 14–17 times in all, once per distinct register name, so
// collisions are rare; it holds at most 256 × 256 B.
const (
	valueShards  = 32
	internKeyMax = 256
	nameSlots    = 256
	cacheWays    = 8
)

var (
	cacheSeed = maphash.MakeSeed()
	views     [ViewMemoShards]shard[[]rt.Entry]
	values    [valueShards]shard[rt.Value]
	names     [nameSlots]atomic.Pointer[string]
)

// shard is one lock's worth of a cache table: cacheWays slots, each an
// owned copy of a key — reused in place when the slot is overwritten — and
// what it decodes to. A key is found by its full hash and then compared
// byte for byte; a new key takes the oldest slot (FIFO). Hits and misses
// are counted under the lock, which the lookup holds anyway.
type shard[V any] struct {
	mu           sync.Mutex
	hash         [cacheWays]uint64
	key          [cacheWays][]byte
	val          [cacheWays]V
	next         int // the slot the next new key takes
	hits, misses int64
}

// find returns the slot holding key, or -1. The caller holds s.mu.
func (s *shard[V]) find(h uint64, key []byte) int {
	for i := range s.hash {
		if s.hash[i] == h && bytes.Equal(s.key[i], key) {
			return i
		}
	}
	return -1
}

// get returns the value remembered for key, counting the lookup.
func (s *shard[V]) get(h uint64, key []byte) (v V, ok bool) {
	s.mu.Lock()
	if i := s.find(h, key); i >= 0 {
		v, ok = s.val[i], true
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return v, ok
}

// put remembers v under a copy of key. Two read loops that missed on the
// same key both put it; the second finds the first's slot and overwrites
// it, so a key holds at most one slot. The value an overwritten slot held
// is dropped, never reused: it may still back messages in flight.
func (s *shard[V]) put(h uint64, key []byte, v V) {
	s.mu.Lock()
	i := s.find(h, key)
	if i < 0 {
		i = s.next
		s.next = (s.next + 1) % cacheWays
		s.hash[i] = h
		s.key[i] = append(s.key[i][:0], key...)
	}
	s.val[i] = v
	s.mu.Unlock()
}

// ViewMemoCounts reads one view-memo shard's counters: views found in the
// memo, and memoizable views (non-empty, within the key bound) that were
// not and were decoded.
func ViewMemoCounts(i int) (hits, misses int64) {
	s := &views[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// internName returns the register name b as a string, shared with every
// earlier decode of the same bytes while its slot holds it. Names are few
// and read on every message, so the table takes no lock: each slot is an
// atomic pointer to an immutable string. A reader that loads a pointer
// sees the string it was published with (the store happens before the
// load that observes it); a racing store only replaces one valid name with
// another, and the compare decides.
func internName(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internKeyMax {
		return string(b)
	}
	slot := &names[maphash.Bytes(cacheSeed, b)%nameSlots]
	if s := slot.Load(); s != nil && *s == string(b) {
		return *s
	}
	s := string(b)
	slot.Store(&s)
	return s
}

// sharedValue consumes a register value: walk it once without building
// anything to validate it and find its span, look the span up, and build
// only on a miss.
func (d *decoder) sharedValue() (rt.Value, error) {
	start := d.b
	if _, err := d.value(false); err != nil {
		return nil, err
	}
	span := start[:len(start)-len(d.b)]
	// A span of one or two bytes is ⊥, a bool or a one-byte int: building
	// those does not touch the heap (Go boxes bools and small non-negative
	// ints statically), so a slot would only crowd out values that do.
	if len(span) <= 2 || len(span) > internKeyMax {
		return (&decoder{b: span}).value(true)
	}
	h := maphash.Bytes(cacheSeed, span)
	s := &values[h%valueShards]
	if v, ok := s.get(h, span); ok {
		return v, nil
	}
	v, err := (&decoder{b: span}).value(true)
	if err == nil { // unreachable otherwise: the walk above accepted these bytes
		s.put(h, span, v)
	}
	return v, err
}
