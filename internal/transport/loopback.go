package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Loopback is the in-process Network: connections are paired frame queues
// pumped by their own goroutines, so delivery is asynchronous and reorders
// across connections exactly like sockets. Every message still round-trips
// through the wire codec — encode on Send, decode on delivery — so loopback
// runs exercise the exact byte format TCP puts on the network, minus the
// kernel. Use it for deterministic-environment tests and as the conformance
// reference for new Network implementations.
type Loopback struct {
	// Trace, when non-nil, records transport-phase spans (enqueue depth,
	// wire transit via in-frame stamping, decode) on every connection
	// this network creates. Set it before any Listen or Dial. Nil leaves
	// connections untraced and the queued frames byte-identical.
	Trace *trace.Recorder

	mu        sync.Mutex
	next      int
	listeners map[string]*loopListener
}

// NewLoopback creates an empty in-process network.
func NewLoopback() *Loopback {
	return &Loopback{listeners: make(map[string]*loopListener)}
}

// Listen implements Network.
func (lo *Loopback) Listen(h Handler) (Listener, error) {
	lo.mu.Lock()
	defer lo.mu.Unlock()
	addr := fmt.Sprintf("loop:%d", lo.next)
	lo.next++
	l := &loopListener{net: lo, addr: addr, handler: h}
	lo.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (lo *Loopback) Dial(addr string, h Handler) (Conn, error) {
	lo.mu.Lock()
	l := lo.listeners[addr]
	lo.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: no loopback listener at %q", addr)
	}
	return l.accept(h)
}

// loopListener is the accept side of the loopback network.
type loopListener struct {
	net     *Loopback
	addr    string
	handler Handler

	mu      sync.Mutex
	conns   []*loopConn
	crashed bool
	closed  bool
}

func (l *loopListener) Addr() string { return l.addr }

// accept builds a connection pair: the client half is returned to the
// dialer, the server half dispatches to the listener's handler.
func (l *loopListener) accept(h Handler) (Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.crashed {
		return nil, fmt.Errorf("transport: loopback listener %q is down", l.addr)
	}
	client := newLoopConn(h)
	client.rec = l.net.Trace
	server := newLoopConn(func(c Conn, m *wire.Msg) {
		// A crashed node's inbound messages are lost, never handled.
		l.mu.Lock()
		dead := l.crashed || l.closed
		l.mu.Unlock()
		if !dead {
			l.handler(c, m)
		}
	})
	server.rec = l.net.Trace
	client.peer, server.peer = server, client
	go client.pump()
	go server.pump()
	l.conns = append(l.conns, server)
	return client, nil
}

// Crash implements Listener: drop every connection, refuse new ones.
func (l *loopListener) Crash() {
	l.mu.Lock()
	l.crashed = true
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Recover implements Recoverer: the listener stays registered in the
// network across a Crash, so recovery is just accepting again. Severed
// connections stay severed — clients redial.
func (l *loopListener) Recover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("transport: loopback listener %q is closed, not crashed", l.addr)
	}
	l.crashed = false
	return nil
}

// Close implements Listener.
func (l *loopListener) Close() error {
	l.mu.Lock()
	l.closed = true
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	return nil
}

// loopConn is one half of a loopback connection: frames enqueued by the
// peer's Send are decoded and dispatched to this half's handler by pump.
type loopConn struct {
	handler Handler
	filter  atomic.Value    // FrameFilter, installed via SetFilter
	rec     *trace.Recorder // set at accept; nil = untraced, no stamps
	peer    *loopConn
	q       *sendQueue[[]byte] // inbound: the peer's sends, drained by pump
}

func newLoopConn(h Handler) *loopConn {
	return &loopConn{handler: h, q: newSendQueue(wire.PutBuf)}
}

// SetFilter implements FilteredConn.
func (c *loopConn) SetFilter(f FrameFilter) { c.filter.Store(f) }

// loadFilter returns the installed FrameFilter, nil when none.
func (c *loopConn) loadFilter() FrameFilter {
	if f, ok := c.filter.Load().(FrameFilter); ok {
		return f
	}
	return nil
}

// Send implements Conn: encode the frame into a pooled buffer and enqueue
// it at the peer.
func (c *loopConn) Send(m *wire.Msg) error {
	frame, err := wire.Append(wire.GetBuf(), m)
	if err != nil {
		wire.PutBuf(frame)
		return err
	}
	return c.SendEncoded(frame)
}

// SendEncoded implements Conn, taking ownership of frame. Close closes
// both halves' queues, so a severed connection refuses every frame from
// either side.
func (c *loopConn) SendEncoded(frame []byte) error {
	rawLen := len(frame) // stats count the frame, never the trace stamp
	if c.rec != nil {
		// Traced connections suffix every queued frame with its enqueue
		// stamp — the peer's pump strips it and records queue transit as
		// the wire span. Both halves share the network's recorder, so
		// stamping is always symmetric.
		var b [wire.StampSize]byte
		wire.PutStamp(b[:], trace.Now())
		frame = append(frame, b[:]...)
	}
	depth, err := c.peer.q.put(frame)
	if err != nil {
		return err
	}
	if c.rec != nil {
		c.rec.Event(0, 0, trace.PEnqueue, int64(depth))
	}
	countOut(rawLen)
	return nil
}

// pump is the read loop: each wakeup drains every frame already queued and
// dispatches their messages as one group — batch frames message by message,
// consecutive frames back to back — with the replies issued during the
// dispatch coalesced into one frame, exactly the behavior the TCP path
// gets from write-loop coalescing plus batch decode. Frame buffers are
// recycled as they are decoded.
func (c *loopConn) pump() {
	var frames [][]byte
	bodies := make([][]byte, 0, 16)
	rc := replyCoalescer{conn: c}
	for {
		var ok bool
		if frames, ok = c.q.take(frames); !ok {
			return
		}
		bodies = bodies[:0]
		var err error
		for _, f := range frames {
			if c.rec != nil && len(f) >= wire.StampSize {
				// Strip the enqueue stamp the traced sender
				// suffixed; queue transit is the wire span.
				sent := wire.GetStamp(f[len(f)-wire.StampSize:])
				f = f[:len(f)-wire.StampSize]
				c.rec.Record(0, 0, trace.PWire, sent, trace.Now()-sent, int64(len(f)))
			}
			var body []byte
			if body, err = frameBody(f); err != nil {
				break
			}
			countIn(len(body))
			bodies = append(bodies, body)
		}
		var decT0 int64
		if c.rec != nil {
			decT0 = trace.Now()
		}
		if err == nil {
			err = dispatchGroup(&rc, c.handler, c.loadFilter(), bodies...)
		}
		if c.rec != nil {
			c.rec.Record(0, 0, trace.PReadDecode, decT0, trace.Now()-decT0, int64(len(bodies)))
		}
		for _, f := range frames {
			wire.PutBuf(f)
		}
		// The buffers are the pool's again: drop the stale references, or
		// a connection pins its largest drain's worth of them past every
		// GC (the whole of the soak harness's heap drift). The next take
		// clears frames.
		clear(bodies)
		if err != nil {
			// A corrupt frame on a real socket kills the connection;
			// mirror that.
			c.Close()
			return
		}
	}
}

// Close implements Conn. Closing either half severs both, like a socket.
func (c *loopConn) Close() error {
	c.q.close()
	if p := c.peer; p != nil {
		p.q.close()
	}
	return nil
}

// frameBody strips the length prefix of a buffer that must hold exactly one
// frame — a loopback queue entry, a UDP datagram — so a mismatch is a
// framing bug or a truncation, never a short read.
func frameBody(frame []byte) ([]byte, error) {
	body, n, err := wire.SplitFrame(frame)
	if err == nil && (n == 0 || n != len(frame)) {
		err = fmt.Errorf("transport: malformed frame (%d of %d bytes framed)", n, len(frame))
	}
	return body, err
}
