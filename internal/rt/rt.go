package rt

import "math/rand"

// ProcID identifies one of the n processors, in the range [0, n).
// sim.ProcID is an alias of this type.
type ProcID int

// Value is the content of a register cell. Values must be treated as
// immutable once propagated: stores hand out references, not copies. On the
// live backend immutability is what makes sharing across goroutines safe.
type Value any

// WireSizer is implemented by payloads that can report their size in bytes
// for bit-complexity accounting. For values that travel through the
// internal/wire codec, WireSize must equal the codec's encoded body size
// exactly — internal/wire's property tests pin that contract.
type WireSizer interface {
	WireSize() int
}

// UvarintSize returns the encoded length in bytes of v as an unsigned
// varint, the integer representation of the internal/wire codec
// (encoding/binary's uvarint). It is exported so WireSizer implementations
// outside internal/wire can account sizes without importing the codec.
func UvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ZigZag maps a signed integer to the unsigned representation the codec
// encodes signed values with (small magnitudes stay small: 0→0, -1→1, 1→2).
func ZigZag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// ValueSize returns the exact encoded size of a register value under the
// internal/wire codec: one kind tag byte plus the value body. Natively
// codable kinds (⊥, bool, int, string) are sized here; every other value
// must implement WireSizer and report its encoded body size (core.Status and
// renaming.NameSet do). Values that do neither cannot cross the wire; they
// are charged a coarse 8-byte body so sim-backend accounting of ad-hoc test
// payloads stays monotone.
func ValueSize(v Value) int {
	switch x := v.(type) {
	case nil:
		return 1
	case bool:
		return 1 + 1
	case int:
		return 1 + UvarintSize(ZigZag(int64(x)))
	case string:
		return 1 + UvarintSize(uint64(len(x))) + len(x)
	default:
		if s, ok := v.(WireSizer); ok {
			return 1 + s.WireSize()
		}
		return 1 + 8
	}
}

// Entry is one register cell in transit or in a view: the cell of register
// array Reg owned by Owner, at write version Seq.
type Entry struct {
	Reg   string
	Owner ProcID
	Seq   uint64
	Val   Value
}

// WireSize implements WireSizer with the entry's exact encoded size under
// the internal/wire codec: owner and sequence number as uvarints plus the
// tagged value. The register name is not part of an entry's wire cost —
// frames carry it once per message, not once per entry.
func (e Entry) WireSize() int {
	return UvarintSize(uint64(e.Owner)) + UvarintSize(e.Seq) + ValueSize(e.Val)
}

// View is one processor's register-array snapshot returned by Comm.Collect:
// the non-⊥ cells of one register array at replier From. In the paper's
// notation, Views[k][j] is Get(j) on the k-th returned View.
type View struct {
	From    ProcID
	Entries []Entry
}

// Get returns the value of owner j's cell in this view; ok is false when the
// view holds ⊥ for j.
func (v View) Get(j ProcID) (Value, bool) {
	for _, e := range v.Entries {
		if e.Owner == j {
			return e.Val, true
		}
	}
	return nil, false
}

// Procer is a processor handle: the surface of sim.Proc that algorithm code
// uses. All methods must be called from the processor's own algorithm
// goroutine.
type Procer interface {
	// ID returns the processor's identifier.
	ID() ProcID
	// N returns the system size.
	N() int
	// Rand returns the processor's private PRNG. The PRNG is owned by the
	// algorithm goroutine and must not be shared.
	Rand() *rand.Rand
	// Pause yields to the backend's scheduler without a condition.
	Pause()
	// Flip performs a biased local coin flip: 1 with probability prob, else
	// 0. On the sim backend the outcome is published to the adversary before
	// the algorithm can act on it (the strong-adversary model); the live
	// backend yields to the OS scheduler instead.
	Flip(prob float64) int
	// Publish registers a view of the algorithm's local state, readable by
	// the sim adversary at any point and by runners after the run completes.
	Publish(state any)
}

// Comm is the communicate primitive handle for one processor: the surface of
// quorum.Comm that algorithm code uses. Both operations block until at least
// ⌊n/2⌋+1 processors (the caller included) have acknowledged, so any two
// calls intersect in at least one processor — the property every proof in
// the paper relies on.
type Comm interface {
	// Proc returns the processor handle behind this Comm.
	Proc() Procer
	// QuorumSize returns ⌊n/2⌋+1, the number of acknowledgments every
	// communicate call waits for.
	QuorumSize() int
	// Propagate performs communicate(propagate, reg[self] = val): bump the
	// caller's cell of register reg to val and push it to a quorum.
	Propagate(reg string, val Value)
	// Collect performs communicate(collect, reg): gather the register-array
	// views of a quorum (the caller's own included) and return them.
	//
	// The returned slice is arena scratch owned by the Comm: it is valid
	// only until the caller's next communicate call on the same handle,
	// when the backend may reuse its backing array. The View entries
	// themselves are shared immutable snapshots and stay valid. Every
	// algorithm in this repository consumes views before communicating
	// again; callers that need them longer must copy the slice.
	Collect(reg string) []View
}
