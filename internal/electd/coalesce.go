package electd

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// coalescer merges the concurrent quorum messages bound for one server
// into batched multi-op frames, group-commit style: the first enqueuer
// becomes the flusher, and every message that arrives while a flush is in
// progress rides the next batch. Under load — many participants or many
// multiplexed elections sharing the pool's one connection per server —
// whole broadcast waves collapse into single frames (one write-queue hand-
// off, one syscall, one reply batch coming back); an idle connection still
// sends a lone message immediately, as the plain frame it already is, so
// coalescing never trades latency for throughput.
type coalescer struct {
	conn transport.Conn

	mu       sync.Mutex
	buf      []byte // pending pre-encoded frames, concatenated; from wire.GetBuf
	count    int
	flushing bool

	msgs   atomic.Int64 // messages enqueued
	frames atomic.Int64 // frames actually sent (≤ msgs; the gap is the win)

	// dead latches once the connection refuses a frame (severed by a crash,
	// closed): from then on enqueue reports the link down, so a quorum call
	// picks another server for its first wave instead of waiting out a tick
	// on this one. Redial installs fresh coalescers, which clears it.
	dead atomic.Bool

	// hist, when set (Pool.registerMetrics), records each flush's batch
	// size — the observable distribution behind the msgs/frames ratio.
	// Installed before traffic flows; nil on a bare pool.
	hist *obs.Histogram
}

// enqueue adds one pre-encoded frame (length prefix included) to the
// server's pending batch. The bytes are copied, so the caller keeps
// ownership of frame. If no flush is in progress the calling goroutine
// flushes — the group-commit bargain: everyone else enqueues and leaves.
// It reports false when the connection is known to be down: the frame went
// nowhere. A caller that flushed learns of a send error at once; one that
// left its frame to another flusher learns of it on its next call.
func (co *coalescer) enqueue(frame []byte) bool {
	if co.dead.Load() {
		return false
	}
	co.mu.Lock()
	if co.buf == nil {
		co.buf = wire.GetBuf()
	}
	co.buf = append(co.buf, frame...)
	co.count++
	if co.flushing {
		co.mu.Unlock()
		return true
	}
	co.flushing = true
	co.mu.Unlock()
	co.flush()
	return !co.dead.Load()
}

// flush drains the pending batch — repeatedly, since new messages
// accumulate while the previous frame is being handed to the transport —
// and clears the flushing flag only once the batch is empty. Send errors
// are message loss, the model's prerogative for a dead link; they latch
// dead so later calls route around the link.
func (co *coalescer) flush() {
	for {
		co.mu.Lock()
		buf, count := co.buf, co.count
		co.buf, co.count = nil, 0
		if count == 0 {
			co.flushing = false
			co.mu.Unlock()
			return
		}
		co.mu.Unlock()
		co.msgs.Add(int64(count))
		co.frames.Add(1)
		if co.hist != nil {
			co.hist.Observe(int64(count))
		}
		if count == 1 {
			// A single length-prefixed frame is already the wire form.
			co.send(buf)
			continue
		}
		batch, err := wire.AppendBatchFrame(wire.GetBuf(), count, buf)
		if err != nil {
			// A batch too big for one frame (pathological at MaxFrame
			// scale): fall back to sending the accumulated frames one by
			// one, preserving delivery over efficiency.
			wire.PutBuf(batch)
			co.frames.Add(int64(count) - 1)
			for rest := buf; len(rest) > 0; {
				size, n := binary.Uvarint(rest)
				end := n + int(size)
				one := append(wire.GetBuf(), rest[:end]...)
				co.send(one)
				rest = rest[end:]
			}
			wire.PutBuf(buf)
			continue
		}
		wire.PutBuf(buf)
		co.send(batch)
	}
}

// send hands one frame to the transport, latching dead on refusal.
func (co *coalescer) send(frame []byte) {
	if co.conn.SendEncoded(frame) != nil {
		co.dead.Store(true)
	}
}
