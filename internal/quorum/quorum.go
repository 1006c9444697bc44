// Package quorum implements the communicate primitive of Attiya, Bar-Noy and
// Dolev [ABND95] as used by "How to Elect a Leader Faster than a Tournament"
// (Section 2): communicate(m) sends m to all n processors and waits for at
// least ⌊n/2⌋+1 acknowledgments before proceeding. Its key property — relied
// on by every proof in the paper — is that any two communicate calls
// intersect in at least one recipient.
//
// State is organised as register arrays: a register array is a named vector
// with one cell per processor, and each cell is written only by its owner
// with a monotonically increasing sequence number (so stale propagations
// never overwrite fresh ones). The arrays live in the register store every
// backend shares (internal/regstore; the sim kernel is single-threaded, so
// the store's atomics are uncontended and invisible to it). Two operations
// are provided, matching the paper's two message forms:
//
//   - Propagate (the paper's "propagate, v"): write the caller's own cell and
//     push it to a quorum;
//   - Collect (the paper's "collect, v"): gather the register array views of
//     at least ⌊n/2⌋+1 processors and return them.
//
// Both count as one communicate call for time accounting (Claim 2.1), and
// both cost O(n) messages.
package quorum

import (
	"fmt"

	"repro/internal/regstore"
	"repro/internal/rt"
	"repro/internal/sim"
)

// Value, Entry and View are aliases of the backend-neutral types of the
// runtime seam (internal/rt), so views collected on this backend and on the
// live backend are interchangeable and algorithm code is backend-blind.
type (
	// Value is the content of a register cell. Values must be treated as
	// immutable once propagated: stores hand out references, not copies.
	Value = rt.Value

	// Entry is one register cell in transit or in a view: the cell of
	// register array Reg owned by Owner, at write version Seq.
	Entry = rt.Entry

	// View is one processor's register-array snapshot returned by Collect:
	// the non-⊥ cells of register Reg at replier From. In the paper's
	// notation, Views[k][j] is Get(j) on the k-th returned View.
	View = rt.View
)

// Message payloads exchanged by the layer.
type (
	// propagateMsg pushes register cells to a recipient, who merges them
	// and acknowledges.
	propagateMsg struct {
		Call    int64
		From    sim.ProcID
		Entries []Entry
	}
	// ackMsg acknowledges a propagateMsg.
	ackMsg struct {
		Call int64
		From sim.ProcID
	}
	// collectMsg requests the recipient's view of one register array.
	collectMsg struct {
		Call int64
		From sim.ProcID
		Reg  string
	}
	// collectAck carries the recipient's view of register array Reg back
	// to the caller.
	collectAck struct {
		Call    int64
		From    sim.ProcID
		Reg     string
		Entries []Entry

		entriesSize int // precomputed WireSize of Entries (0 = unknown)
	}
)

// The WireSize methods report the frame-body sizes of each payload's
// internal/wire equivalent, so the sim kernel's PayloadBytes statistic and
// the live backend's byte counters account the same wire format. The
// arithmetic follows wire.Msg.BodySize — kind byte, election/call/from
// uvarints (election is 0 on this backend — a run is one instance), the
// register name once per message, the tag uvarint on collects and views,
// then the entries. entriesReg returns a propagate's register name, which
// its entries carry.
func entriesReg(entries []Entry) string {
	if len(entries) == 0 {
		return ""
	}
	return entries[0].Reg
}

// msgOverhead is the shared frame-body header, as wire.Msg.BodySize counts
// it: kind byte + election uvarint + call uvarint + from uvarint +
// register-name length and bytes; collects and views add tagSize. This
// package cannot call BodySize itself — wire imports core and renaming,
// whose own tests import this package — so TestWireSizes pins every
// message's size to the wire encoding instead.
func msgOverhead(call int64, from sim.ProcID, reg string) int {
	return 1 + rt.UvarintSize(0) + rt.UvarintSize(uint64(call)) +
		rt.UvarintSize(uint64(from)) + rt.UvarintSize(uint64(len(reg))) + len(reg)
}

// tagSize is the tag uvarint wire puts on collects and views, always 0 here.
const tagSize = 1

// WireSize implements sim.WireSizer.
func (m propagateMsg) WireSize() int {
	reg := entriesReg(m.Entries)
	n := msgOverhead(m.Call, m.From, reg) + rt.UvarintSize(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		n += e.WireSize()
	}
	return n
}

// WireSize implements sim.WireSizer.
func (m ackMsg) WireSize() int { return msgOverhead(m.Call, m.From, "") }

// WireSize implements sim.WireSizer.
func (m collectMsg) WireSize() int { return msgOverhead(m.Call, m.From, m.Reg) + tagSize }

// WireSize implements sim.WireSizer.
func (m collectAck) WireSize() int {
	n := msgOverhead(m.Call, m.From, m.Reg) + tagSize + rt.UvarintSize(uint64(len(m.Entries)))
	if m.entriesSize > 0 || len(m.Entries) == 0 {
		return n + m.entriesSize
	}
	for _, e := range m.Entries {
		n += e.WireSize()
	}
	return n
}

// pendingCall tracks one outstanding communicate call on the caller side.
// Slots are recycled through the store's one-deep freelist: a processor has
// at most one call outstanding (communicate blocks), so the slot — and the
// views backing array Collect hands to the algorithm — is reused on the
// next call, which is what makes Collect's results valid only until then
// (the rt.Comm contract).
type pendingCall struct {
	acks  int
	views []View
}

// Store is the per-processor state of the layer: the local view of every
// register array plus the bookkeeping for the processor's own outstanding
// communicate calls. It implements sim.Service and must be installed on all
// n processors (participants or not) so that everyone acknowledges, per the
// model's standing assumption.
type Store struct {
	id   sim.ProcID
	n    int
	regs *regstore.Store

	nextCall int64
	pending  map[int64]*pendingCall
	free     *pendingCall // one-deep recycled-slot freelist; see pendingCall
}

// NewStore creates the store for processor id in a system of n processors.
func NewStore(id sim.ProcID, n int) *Store {
	return &Store{
		id:      id,
		n:       n,
		regs:    regstore.New(nil),
		pending: make(map[int64]*pendingCall),
	}
}

// InstallStores equips every processor of the kernel with a fresh Store and
// returns them indexed by processor.
func InstallStores(k *sim.Kernel) []*Store {
	n := k.N()
	stores := make([]*Store, n)
	for i := 0; i < n; i++ {
		stores[i] = NewStore(sim.ProcID(i), n)
		k.SetService(sim.ProcID(i), stores[i])
	}
	return stores
}

// HandleMessage implements sim.Service.
func (s *Store) HandleMessage(from sim.ProcID, payload any) (any, bool) {
	switch m := payload.(type) {
	case propagateMsg:
		for i := range m.Entries {
			s.regs.Merge(&m.Entries[i]) // adopted: propagated entries are immutable
		}
		return ackMsg{Call: m.Call, From: s.id}, true
	case collectMsg:
		snap, _ := s.regs.Snapshot(m.Reg)
		return collectAck{Call: m.Call, From: s.id, Reg: m.Reg, Entries: snap.Entries, entriesSize: snap.Size}, true
	case ackMsg:
		if c, ok := s.pending[m.Call]; ok {
			c.acks++
		}
		return nil, false
	case collectAck:
		if c, ok := s.pending[m.Call]; ok {
			c.acks++
			c.views = append(c.views, View{From: m.From, Entries: m.Entries})
		}
		return nil, false
	default:
		// Unknown payloads are ignored: the layer shares the network with
		// nothing else, but stays robust.
		return nil, false
	}
}

// Snapshot returns the non-⊥ cells of a register array as entries, in owner
// order. The slice belongs to the published snapshot, shared across callers
// of the same version: it and the values it references must be treated as
// immutable.
func (s *Store) Snapshot(reg string) []Entry {
	snap, _ := s.regs.Snapshot(reg)
	return snap.Entries
}

// Comm is the algorithm-side handle for issuing communicate calls from one
// processor. It pairs the processor's kernel handle with its store.
type Comm struct {
	p  *sim.Proc
	st *Store
}

// NewComm builds the communicate handle for an algorithm running on p, using
// the store installed on p's processor.
func NewComm(p *sim.Proc, st *Store) *Comm {
	if st.id != p.ID() {
		panic(fmt.Sprintf("quorum: store of processor %d attached to processor %d", st.id, p.ID()))
	}
	return &Comm{p: p, st: st}
}

// Proc returns the processor handle behind this Comm, as the backend-neutral
// rt.Procer of the runtime seam. The concrete handle is the *sim.Proc passed
// to NewComm.
func (c *Comm) Proc() rt.Procer { return c.p }

// QuorumSize returns ⌊n/2⌋+1, the number of acknowledgments every
// communicate call waits for.
func (c *Comm) QuorumSize() int { return c.st.n/2 + 1 }

// Propagate performs communicate(propagate, reg[self] = val): it bumps the
// caller's cell of register reg to val and pushes it to at least a quorum.
// One communicate call; blocks until ⌊n/2⌋+1 acks (self included) arrive.
func (c *Comm) Propagate(reg string, val Value) {
	payload := []Entry{{Reg: reg, Owner: c.p.ID(), Val: val}}
	c.st.regs.Write(&payload[0])
	c.broadcast(payload)
}

// Collect performs communicate(collect, reg): it gathers the views of at
// least ⌊n/2⌋+1 processors (the caller's own store included) and returns
// them. One communicate call. The returned slice is recycled scratch: it
// is valid until this processor's next communicate call (the entries
// inside are shared immutable snapshots and stay valid).
func (c *Comm) Collect(reg string) []View {
	call := c.newCall()
	pc := c.st.pending[call]
	// The caller's own view counts as one of the ⌊n/2⌋+1.
	pc.acks++
	pc.views = append(pc.views, View{From: c.p.ID(), Entries: c.st.Snapshot(reg)})
	for i := 0; i < c.st.n; i++ {
		if sim.ProcID(i) == c.p.ID() {
			continue
		}
		c.p.Send(sim.ProcID(i), collectMsg{Call: call, From: c.p.ID(), Reg: reg})
	}
	c.await(call)
	views := pc.views
	c.endCall(call, pc)
	return views
}

// broadcast is Propagate's send-and-await-quorum half: it pushes entries,
// already in the caller's store, to every peer.
func (c *Comm) broadcast(entries []Entry) {
	call := c.newCall()
	pc := c.st.pending[call]
	pc.acks++ // self-ack: the local store is updated synchronously
	msg := propagateMsg{Call: call, From: c.p.ID(), Entries: entries}
	for i := 0; i < c.st.n; i++ {
		if sim.ProcID(i) == c.p.ID() {
			continue
		}
		c.p.Send(sim.ProcID(i), msg)
	}
	c.await(call)
	c.endCall(call, c.st.pending[call])
}

func (c *Comm) newCall() int64 {
	c.st.nextCall++
	call := c.st.nextCall
	pc := c.st.free
	if pc != nil {
		c.st.free = nil
		pc.acks = 0
		pc.views = pc.views[:0]
	} else {
		pc = &pendingCall{}
	}
	c.st.pending[call] = pc
	return call
}

// endCall retires a completed call, recycling its slot (and the views
// backing array) for the processor's next communicate call.
func (c *Comm) endCall(call int64, pc *pendingCall) {
	delete(c.st.pending, call)
	c.st.free = pc
}

// await blocks the algorithm until the call has a quorum of acks, counting
// the call for time complexity.
func (c *Comm) await(call int64) {
	c.p.NoteCommunicate()
	need := c.QuorumSize()
	pc := c.st.pending[call]
	if pc.acks >= need {
		// Quorum already satisfied (n == 1): still yield once so the
		// adversary keeps scheduling control at every communicate call.
		c.p.Pause()
		return
	}
	c.p.Await(func() bool { return pc.acks >= need })
}

// MsgKind classifies layer payloads for adversary strategies, which hold or
// prioritise messages by role (e.g. delaying propagations while letting
// acknowledgments through). The strong adversary may inspect payloads, so
// exposing the classification is within the model.
type MsgKind int

const (
	// KindOther: not a quorum-layer payload.
	KindOther MsgKind = iota + 1
	// KindPropagate: a propagate request carrying register cells.
	KindPropagate
	// KindPropagateAck: an acknowledgment of a propagate request.
	KindPropagateAck
	// KindCollect: a collect request.
	KindCollect
	// KindCollectAck: a collect reply carrying a register-array view.
	KindCollectAck
)

// Classify reports the protocol role of a message payload.
func Classify(payload any) MsgKind {
	switch payload.(type) {
	case propagateMsg:
		return KindPropagate
	case ackMsg:
		return KindPropagateAck
	case collectMsg:
		return KindCollect
	case collectAck:
		return KindCollectAck
	default:
		return KindOther
	}
}
