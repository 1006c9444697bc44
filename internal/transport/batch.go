package transport

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/wire"
)

// maxCoalesce bounds one write-loop drain: how many queued frames a single
// wakeup may pick up and coalesce. It caps the latency any one frame can
// accumulate behind its runmates and keeps a drain from starving its write.
const maxCoalesce = 256

// drainOverhead bounds the bytes a drain adds per queued frame: at most
// one batch header (a ≤ 4-byte prefix, the kind, a ≤ 3-byte count) and
// one trace stamp.
const drainOverhead = 8 + wire.StampSize

// maxRunBytes bounds the sub-frame bytes of one batch — a coalesced run of
// a write loop's drain, or a reply batch (replyCoalescer.flush) — so that
// the outer frame, header and trace stamp included, fits the peer's
// tcpBufSize read buffer whole: a larger one would cost the reader a fresh
// buffer for that frame. A run that would exceed it is split across
// batches; only a single frame larger than that travels, alone, in a
// frame that outgrows the buffer.
const maxRunBytes = tcpBufSize - drainOverhead

// coalesceFrames gathers a drained run of encoded frames onto dst — the
// bytes of one socket write — wrapping every maximal run of batchable
// frames (two or more, up to maxRunBytes) into one batch frame. Frames that
// are already batches (no nesting) or malformed pass through untouched, in
// order; the per-connection FIFO is preserved either way. dst is grown to
// the drain's size once, up front, and every frame buffer is recycled.
// With stamp set, every outer frame is followed by its send-time trace
// stamp (see wire.PutStamp); the receiving read loop must expect it.
func coalesceFrames(dst []byte, frames [][]byte, stamp bool) []byte {
	need := 0
	for _, f := range frames {
		need += len(f) + drainOverhead
	}
	dst = slices.Grow(dst, need)
	for i := 0; i < len(frames); {
		j, size := i, 0
		for j < len(frames) && size+len(frames[j]) <= maxRunBytes && wire.BatchableFrame(frames[j]) {
			size += len(frames[j])
			j++
		}
		if j-i >= 2 {
			// AppendBatchHeader cannot fail under the run caps; if it did,
			// the run's first frame would go out alone below.
			if withHdr, err := wire.AppendBatchHeader(dst, j-i, size); err == nil {
				countBatchOut(j-i, len(withHdr)-len(dst)+size)
				for dst = withHdr; i < j; i++ {
					dst = append(dst, frames[i]...)
					wire.PutBuf(frames[i])
					frames[i] = nil
				}
				dst = appendStamp(dst, stamp)
				continue
			}
		}
		// A lone batchable frame, or an unbatchable one: as-is.
		countOut(len(frames[i]))
		dst = appendStamp(append(dst, frames[i]...), stamp)
		wire.PutBuf(frames[i])
		frames[i] = nil
		i++
	}
	return dst
}

// dispatchGroup streams the messages of a group of frame bodies to h in
// order: each message is filtered (keep may veto its decode — stragglers
// beyond a quorum die here, and because dispatch is streaming, the filter
// sees routing state current up to the previous message), decoded through
// the process-wide decode cache (wire.DecodeShared), and handed to h before
// the next one is touched. For anything beyond a single plain frame, the
// Conn the handler sees is rc, the connection's replyCoalescer: every reply
// h sends while the group is dispatched accumulates into one outbound batch
// frame, flushed when the last message returns. That keeps the request/reply symmetry of the
// coalesced hot path — a batched quorum broadcast comes back as a batched
// quorum of replies — without the server layer knowing batches exist. The
// first corrupt body aborts the dispatch (already-dispatched messages
// stand, as on any mid-stream severance).
func dispatchGroup(rc *replyCoalescer, h Handler, keep FrameFilter, bodies ...[]byte) error {
	if len(bodies) == 1 && len(bodies[0]) > 0 && wire.Kind(bodies[0][0]) != wire.KindBatch {
		if keep != nil && !keep(bodies[0]) {
			return nil
		}
		m, err := wire.DecodeShared(bodies[0])
		if err != nil {
			return err
		}
		h(rc.conn, m)
		return nil
	}
	rc.begin()
	var err error
	for _, body := range bodies {
		if err = wire.ForEachFrame(body, func(sub []byte) error {
			if keep != nil && !keep(sub) {
				return nil
			}
			m, err := wire.DecodeShared(sub)
			if err != nil {
				return err
			}
			h(rc, m)
			return nil
		}); err != nil {
			break
		}
	}
	rc.flush()
	return err
}

// replyCoalescer is the Conn a handler replies through while one inbound
// batch is dispatched: Sends append pre-encoded sub-frames to one buffer,
// and flush forwards them as a single frame — plain for one reply, batch
// for several. It belongs to one connection for that connection's life
// (conn is set once, before the read loop starts), so the handler sees it
// through the Conn interface without one escaping to the heap per inbound
// batch — on client read loops too, whose handler never replies — and
// whatever reaches it, whenever, goes to that connection's peer: between
// groups sends fall straight through, and a reply sent after its handler
// returned (the Handler contract forbids it) at worst rides a later
// batch to the same peer.
type replyCoalescer struct {
	mu    sync.Mutex
	conn  Conn   // the connection replied on; immutable
	buf   []byte // concatenated length-prefixed frames, from wire.GetBuf
	count int
	open  bool // a group is being dispatched: buffer, don't pass through
}

// begin starts a group.
func (rc *replyCoalescer) begin() {
	rc.mu.Lock()
	rc.open = true
	rc.mu.Unlock()
}

// Send implements Conn: encode now (the caller may reuse m immediately),
// deliver at flush. Encoding errors surface here; delivery errors are
// message loss at flush, as on any closed connection.
func (rc *replyCoalescer) Send(m *wire.Msg) error {
	rc.mu.Lock()
	if !rc.open {
		rc.mu.Unlock()
		return rc.conn.Send(m)
	}
	if rc.buf == nil {
		rc.buf = wire.GetBuf()
	}
	buf, err := wire.Append(rc.buf, m)
	if err == nil {
		rc.buf = buf
		rc.count++
	}
	rc.mu.Unlock()
	return err
}

// SendEncoded implements Conn.
func (rc *replyCoalescer) SendEncoded(frame []byte) error {
	rc.mu.Lock()
	if !rc.open {
		rc.mu.Unlock()
		return rc.conn.SendEncoded(frame)
	}
	if rc.buf == nil {
		rc.buf = wire.GetBuf()
	}
	rc.buf = append(rc.buf, frame...)
	rc.count++
	rc.mu.Unlock()
	wire.PutBuf(frame)
	return nil
}

// Close implements Conn, severing the underlying connection (a handler
// closes on protocol violations; pending replies to the violator can drop).
func (rc *replyCoalescer) Close() error { return rc.conn.Close() }

// flush forwards the accumulated replies and switches the coalescer to
// pass-through. The replies leave in order, in runs of up to maxRunBytes,
// each run as one frame — plain for one reply, batch for several — so that
// every frame fits the peer's read buffer unless one reply alone does not.
func (rc *replyCoalescer) flush() {
	rc.mu.Lock()
	buf, count := rc.buf, rc.count
	rc.buf, rc.count, rc.open = nil, 0, false
	rc.mu.Unlock()
	if count == 1 {
		// A single length-prefixed frame is already the wire form.
		rc.conn.SendEncoded(buf) //nolint:errcheck // loss, per the model
		return
	}
	for rest := buf; len(rest) > 0; {
		end, n := 0, 0
		for end < len(rest) {
			size, k := binary.Uvarint(rest[end:])
			next := end + k + int(size)
			if n > 0 && next > maxRunBytes {
				break
			}
			end, n = next, n+1
		}
		frame := wire.GetBuf()
		if n == 1 {
			frame = append(frame, rest[:end]...)
		} else {
			// Under maxRunBytes the header cannot fail.
			frame, _ = wire.AppendBatchFrame(frame, n, rest[:end])
		}
		rc.conn.SendEncoded(frame) //nolint:errcheck // loss, per the model
		rest = rest[end:]
	}
	if buf != nil {
		wire.PutBuf(buf)
	}
}
