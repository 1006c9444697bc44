// Package trace is the election flight recorder: a low-overhead,
// ring-buffered span store that attributes every microsecond of a live
// election to a phase across the three layers of the network stack —
// client pool (encode, send, quorum wait), transport (queue, drain,
// decode, wire transit) and server (shard wait, merge, snapshot, reply).
//
// The recorder is built for hot paths. Appending a span is a handful of
// atomic stores into a fixed ring — no locks, no allocation, no blocking;
// when the ring wraps, the oldest spans are silently evicted (the Dropped
// counter says how many). All methods are nil-safe: a nil *Recorder
// records nothing, so instrumented code guards with `if rec != nil` and
// the untraced path stays byte- and alloc-identical to an uninstrumented
// build.
//
// Concurrency model: each ring slot is a seqlock. A writer claims a
// globally unique ticket with one atomic add, zeroes the slot's sequence
// word, stores the payload fields, then publishes the ticket as the new
// sequence. A reader snapshots the sequence, copies the fields, and
// re-checks the sequence — a torn slot (sequence changed, or zero) is
// discarded. Tickets are monotonic, so a reader can never confuse two
// generations of the same slot (no ABA), and every field is accessed
// atomically, so the scheme is clean under the race detector.
//
// Tracing sits entirely outside the quorum protocol: spans never alter
// what is sent, when it is sent, or how replies are counted. See
// docs/TRACE.md for the span model and phase taxonomy.
package trace

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Phase identifies what a span's duration was spent on. Phases are grouped
// by layer; Layer reports the grouping.
type Phase uint8

const (
	// PNone is the zero phase; recorded spans never carry it.
	PNone Phase = iota

	// Client-layer phases (electd.Client.rpc / live chan comm). These
	// three are sequential within one communicate call, so their sum
	// approximates the per-round client latency.

	// PEncode is request encoding: building the canonical wire frame.
	PEncode
	// PSend is the first wave: handing one encoded frame to each server
	// link it goes to (a pooled copy onto the connection's send queue; Detail =
	// requests sent — all n on the chan substrate, quorum+slack on electd).
	PSend
	// PQuorumWait is the wait from broadcast until a majority of
	// replies has arrived.
	PQuorumWait
	// PStraggler counts replies dropped pre-decode because their call
	// already completed (Detail = sender ID). Duration is zero.
	PStraggler
	// PRetransmit counts ticks fired while waiting for a quorum, on either
	// substrate: the widen of a quorum+slack first wave to everyone
	// unanswered (Detail = 0) and the resends after it on lossy transports
	// and under fault plans (Detail = attempt number, from 1).
	PRetransmit

	// Transport-layer phases.

	// PEnqueue is the handoff of an encoded frame to the conn's
	// outbound queue (Detail = queue depth observed at enqueue).
	PEnqueue
	// PWriteDrain is one write-loop drain: collecting queued frames,
	// coalescing and writing them (Detail = frames drained).
	PWriteDrain
	// PReadDecode is one read-loop iteration: reading a frame off the
	// socket and dispatching it (Detail = frame bytes).
	PReadDecode
	// PWire is frame transit time from sender enqueue to receiver
	// read, measured by stamping send time after the frame
	// (Detail = frame bytes). Requires stamping enabled on both ends.
	PWire

	// Server-layer phases (electd.Server.Handle).

	// PShardWait is the wait to acquire the election's shard lock.
	PShardWait
	// PMerge is a propagate merge into the register array.
	PMerge
	// PSnapshot is a collect snapshot (Detail = 1 for a cache hit,
	// 0 for a rebuild).
	PSnapshot
	// PReply is reply assembly and handoff to the transport.
	PReply

	numPhases
)

var phaseNames = [numPhases]string{
	PNone:       "none",
	PEncode:     "encode",
	PSend:       "send",
	PQuorumWait: "quorum-wait",
	PStraggler:  "straggler",
	PRetransmit: "retransmit",
	PEnqueue:    "enqueue",
	PWriteDrain: "write-drain",
	PReadDecode: "read-decode",
	PWire:       "wire",
	PShardWait:  "shard-wait",
	PMerge:      "merge",
	PSnapshot:   "snapshot",
	PReply:      "reply",
}

var phaseLayers = [numPhases]string{
	PNone:       "",
	PEncode:     "client",
	PSend:       "client",
	PQuorumWait: "client",
	PStraggler:  "client",
	PRetransmit: "client",
	PEnqueue:    "transport",
	PWriteDrain: "transport",
	PReadDecode: "transport",
	PWire:       "transport",
	PShardWait:  "server",
	PMerge:      "server",
	PSnapshot:   "server",
	PReply:      "server",
}

// String returns the phase's short name (e.g. "quorum-wait").
func (p Phase) String() string {
	if p >= numPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Layer reports which stack layer the phase belongs to: "client",
// "transport" or "server".
func (p Phase) Layer() string {
	if p >= numPhases {
		return ""
	}
	return phaseLayers[p]
}

// NumPhases is the number of defined phases (including PNone).
const NumPhases = int(numPhases)

// Phases lists every recordable phase in declaration order.
func Phases() []Phase {
	out := make([]Phase, 0, numPhases-1)
	for p := PEncode; p < numPhases; p++ {
		out = append(out, p)
	}
	return out
}

// ParsePhase maps a short name back to its Phase; ok is false for
// unknown names.
func ParsePhase(name string) (Phase, bool) {
	for p := PEncode; p < numPhases; p++ {
		if phaseNames[p] == name {
			return p, true
		}
	}
	return PNone, false
}

// Span is one recorded interval (or point event, Dur==0) of an election.
type Span struct {
	// Election is the election ID the span belongs to (0 when the
	// layer cannot attribute the work to one election, e.g. a write
	// drain batching frames from many elections).
	Election uint64 `json:"election"`
	// Round is the protocol round in progress (0 outside rounds or
	// when unknown at the recording layer).
	Round int32 `json:"round"`
	// Phase is what the time was spent on.
	Phase Phase `json:"phase"`
	// Start is the span start in nanoseconds on the process-wide
	// monotonic trace clock (see Now).
	Start int64 `json:"start"`
	// Dur is the span duration in nanoseconds (0 for point events).
	Dur int64 `json:"dur"`
	// Detail is a phase-specific payload (queue depth, frame count,
	// cache hit flag, sender ID — see the Phase docs).
	Detail int64 `json:"detail"`
}

// epoch anchors the process-wide monotonic trace clock. All spans —
// client, transport and server side — share it, so in-process wire
// stamping yields directly comparable times.
var epoch = time.Now()

// Now returns the current time on the trace clock: nanoseconds since the
// process's trace epoch, monotonic.
func Now() int64 { return int64(time.Since(epoch)) }

// slot is one seqlock-protected ring entry. seq==0 means "being written
// or never written"; otherwise seq is the monotonic ticket of the span
// the slot holds.
type slot struct {
	seq      atomic.Uint64
	election atomic.Uint64
	meta     atomic.Uint64 // phase | round<<8
	start    atomic.Int64
	dur      atomic.Int64
	detail   atomic.Int64
}

// Recorder is a fixed-capacity, lock-free span ring. The zero value is
// unusable; construct with NewRecorder. A nil Recorder is a valid no-op
// recorder (every method is nil-safe), which is how tracing is disabled.
type Recorder struct {
	slots []slot
	mask  uint64
	next  atomic.Uint64 // tickets issued; slot index = (ticket-1) & mask

	// hists, when non-nil, mirrors span durations into per-phase obs
	// histograms (µs buckets) so /metrics shows live phase latency.
	hists [numPhases]*obs.Histogram
}

// NewRecorder returns a recorder holding the most recent capacity spans.
// Capacity is rounded up to a power of two (minimum 16).
func NewRecorder(capacity int) *Recorder {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Recorder{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Cap reports the ring capacity in spans.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Enabled reports whether the recorder actually records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends one span, evicting the oldest if the ring is full.
// Never blocks, never allocates; no-op on a nil recorder. start is a
// trace-clock time (Now), dur and detail are per the Phase docs.
func (r *Recorder) Record(election uint64, round int32, phase Phase, start, dur, detail int64) {
	if r == nil {
		return
	}
	t := r.next.Add(1)
	s := &r.slots[(t-1)&r.mask]
	s.seq.Store(0) // invalidate before mutating payload
	s.election.Store(election)
	s.meta.Store(uint64(phase) | uint64(uint32(round))<<8)
	s.start.Store(start)
	s.dur.Store(dur)
	s.detail.Store(detail)
	s.seq.Store(t)
	if h := r.hists[phase]; h != nil {
		h.Observe(dur / 1e3) // µs
	}
}

// Event records a zero-duration point event at time Now().
func (r *Recorder) Event(election uint64, round int32, phase Phase, detail int64) {
	if r == nil {
		return
	}
	r.Record(election, round, phase, Now(), 0, detail)
}

// Recorded reports how many spans were ever appended (including evicted
// ones).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Dropped reports how many spans were evicted by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if c := uint64(len(r.slots)); n > c {
		return n - c
	}
	return 0
}

// Spans returns a snapshot of the ring's current contents, oldest first.
// Slots being concurrently rewritten are skipped (their span is counted
// as dropped by the next snapshot anyway). Safe to call while writers
// are active.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	hi := r.next.Load()
	if hi == 0 {
		return nil
	}
	lo := uint64(1)
	if c := uint64(len(r.slots)); hi > c {
		lo = hi - c + 1
	}
	out := make([]Span, 0, hi-lo+1)
	for t := lo; t <= hi; t++ {
		s := &r.slots[(t-1)&r.mask]
		seq := s.seq.Load()
		if seq == 0 {
			continue // mid-write
		}
		sp := Span{
			Election: s.election.Load(),
			Start:    s.start.Load(),
			Dur:      s.dur.Load(),
			Detail:   s.detail.Load(),
		}
		meta := s.meta.Load()
		if s.seq.Load() != seq {
			continue // torn: overwritten while copying
		}
		sp.Phase = Phase(meta & 0xff)
		sp.Round = int32(uint32(meta >> 8))
		if sp.Phase == PNone || sp.Phase >= numPhases {
			continue
		}
		out = append(out, sp)
	}
	return out
}

// EnableMetrics registers one µs-bucketed histogram per phase
// ("trace_phase_us" labeled phase=<name>) on reg and mirrors every
// subsequent Record into it. Call once, before concurrent recording
// starts. No-op on a nil recorder.
func (r *Recorder) EnableMetrics(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	bounds := obs.ExpBuckets(1, 4, 12) // 1µs .. ~4.2s
	for p := PEncode; p < numPhases; p++ {
		r.hists[p] = reg.NewHistogram("trace_phase_us",
			"per-phase span durations (µs)", bounds,
			obs.L("phase", p.String()), obs.L("layer", p.Layer()))
	}
}
