package wire

import "sync"

// The frame-buffer pool: encode scratch shared by every layer of the
// network path. A frame buffer's ownership travels with the bytes — the
// electd pool encodes into a buffer it got here, hands it to a transport
// connection's write queue, and the write loop puts it back after the
// socket write — so the pool must be one package-level instance rather
// than per-layer pools that would drain into each other.
//
// A sync.Pool stores `any`, and putting a slice into one boxes its
// three-word header on the heap — one allocation per recycle, which at one
// recycle per frame was a sixth of the socket path's allocations. So the
// pool holds pointer-shaped holders (*[]byte, which box for free) and the
// emptied holders cycle through a second pool: GetBuf moves a holder from
// bufPool to holderPool, PutBuf moves one back, and a steady-state
// GetBuf→PutBuf cycle allocates nothing.
var (
	bufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 512)
		return &b
	}}
	holderPool = sync.Pool{New: func() any { return new([]byte) }}
)

// maxPooledBuf keeps one-off giants (a snapshot of a huge register array)
// from pinning memory in the pool; anything larger is left to the GC.
const maxPooledBuf = 1 << 20

// GetBuf returns an empty frame buffer with whatever capacity the pool has
// on hand. Append to it; return it with PutBuf once the bytes are dead.
func GetBuf() []byte {
	h := bufPool.Get().(*[]byte)
	b := *h
	*h = nil // an idle holder must not pin (or alias) the buffer it carried
	holderPool.Put(h)
	return b
}

// PutBuf recycles a frame buffer. The caller must not touch the slice (or
// any alias of its array) afterwards.
func PutBuf(b []byte) {
	if cap(b) > 0 && cap(b) <= maxPooledBuf {
		h := holderPool.Get().(*[]byte)
		*h = b[:0]
		bufPool.Put(h)
	}
}

// msgPool recycles decoded messages: Decode draws from it, and terminal
// consumers hand messages back with PutMsg.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// GetMsg returns a zeroed message from the message pool.
func GetMsg() *Msg {
	return msgPool.Get().(*Msg)
}

// PutMsg recycles a message. The caller must be its terminal consumer:
// nothing may reference the message afterwards. Slices the message pointed
// to (a view's entries, say) stay valid — recycling drops the references,
// it never reuses their arrays. Consumers that own the entries too should
// use RecycleMsg, which keeps the entry array for the next decode.
func PutMsg(m *Msg) {
	*m = Msg{}
	msgPool.Put(m)
}

// RecycleMsg recycles a message AND its entry storage: the Entries array
// rides back into the pool and the next Decode on this message reuses its
// capacity instead of allocating — the arena that takes per-entry
// allocation out of the server's propagate path. The bar is higher than
// PutMsg's: the caller must own everything the message references —
// nothing may retain m.Entries or any sub-slice of it. A consumer that
// hands entries onward (Collect's views keep their reply's entries alive)
// must use PutMsg, which drops the array.
//
// The one array a caller never owns is a memoized view (see DecodeShared):
// the process-wide view memo and any number of other messages, on any
// connection, reference it. That is every non-empty view DecodeShared
// returns within the memo's key bound, hit or miss, so such a view goes
// back with PutMsg, never with RecycleMsg — which would clear the memo's
// array and re-arm it as the next decode's arena.
func RecycleMsg(m *Msg) {
	// Clear the whole capacity, not just the live window: a shorter decode
	// shrinks len below an earlier one, and entries parked in [len, cap)
	// would otherwise pin their rt.Values for the arena's lifetime.
	entries := m.Entries[:cap(m.Entries)]
	clear(entries)
	*m = Msg{}
	m.Entries = entries[:0]
	msgPool.Put(m)
}
