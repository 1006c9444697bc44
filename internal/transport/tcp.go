package transport

import (
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
	"repro/internal/wire"
)

// TCP is the socket-backed Network: one net.Listener per server, one
// pooled connection per (client, server) pair, length-prefixed wire frames
// on the stream. Listen binds 127.0.0.1 on an ephemeral port — loopback
// TCP: real sockets, kernel scheduling and backpressure, no external
// reachability — so a test or an in-process cluster can run dozens of
// nodes without address coordination; cmd/electd binds explicit addresses
// via Spec.ListenAddr. The zero value is ready to use.
type TCP struct {
	// Trace, when non-nil, records transport-phase spans (enqueue depth,
	// write-loop drains, read-loop decodes) on every connection this
	// network creates, and turns on wire stamping: each outer frame is
	// followed by a send-time stamp so the receiving end records wire
	// transit (trace.PWire). Stamping changes the stream format, so both
	// endpoints must come from the same traced Network — which they do
	// for in-process clusters, the only place tracing is wired. Nil
	// leaves connections untraced and the stream byte-identical.
	Trace *trace.Recorder
}

// Listen implements Network on an ephemeral loopback port.
func (t *TCP) Listen(h Handler) (Listener, error) {
	return listenTCP(bindTCP, "127.0.0.1:0", h, t.Trace)
}

// Dial implements Network.
func (t *TCP) Dial(addr string, h Handler) (Conn, error) {
	return dialTCP(addr, h, t.Trace)
}

// TCPListener is a server-side stream endpoint: an accept loop spawning
// one connection per inbound stream. Loopback uses it too, over in-memory
// pipes: only the bind function tells the two networks apart.
type TCPListener struct {
	handler Handler
	rec     *trace.Recorder                         // fixed at listen time; nil = untraced
	addr    string                                  // resolved listen address, fixed at listen time; Recover rebinds it
	bind    func(addr string) (net.Listener, error) // fixed at listen time
	crashed atomic.Bool

	mu        sync.Mutex
	ln        net.Listener // swapped by Recover
	closed    bool
	conns     map[*tcpConn]struct{}
	wg        sync.WaitGroup
	acceptErr error // fatal accept failure; guarded by mu, set before done closes

	done chan struct{} // closed when the current accept loop exits; swapped by Recover
}

// bindTCP listens on a TCP socket.
func bindTCP(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// listenTCP binds addr through bind — at listen time and again at every
// Recover — and serves the streams it accepts.
func listenTCP(bind func(string) (net.Listener, error), addr string, h Handler, rec *trace.Recorder) (*TCPListener, error) {
	ln, err := bind(addr)
	if err != nil {
		return nil, err
	}
	l := &TCPListener{ln: ln, handler: h, rec: rec, addr: ln.Addr().String(), bind: bind, conns: make(map[*tcpConn]struct{}), done: make(chan struct{})}
	l.wg.Add(1)
	go l.accept(ln, l.done)
	return l, nil
}

// Addr implements Listener. The address is fixed at listen time (even for
// ephemeral-port binds it is the resolved port), so it stays dialable
// across Crash/Recover cycles.
func (l *TCPListener) Addr() string { return l.addr }

// Done is closed when the accept loop has exited — after Close or Crash,
// or on a fatal accept error. A daemon selects on it so a listener that
// dies under it becomes an exit, not a silent unreachable server. Recover
// starts a fresh accept loop with a fresh Done channel; re-read it after
// any recovery.
func (l *TCPListener) Done() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done
}

// Err reports why the accept loop exited: nil for a deliberate Close or
// Crash, the accept error otherwise. Meaningful once Done is closed.
func (l *TCPListener) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acceptErr
}

func (l *TCPListener) accept(ln net.Listener, done chan struct{}) {
	defer l.wg.Done()
	defer close(done)
	for {
		c, err := ln.Accept()
		if err != nil {
			l.mu.Lock()
			if !l.closed && !l.crashed.Load() {
				l.acceptErr = err
			}
			l.mu.Unlock()
			return // listener closed, crashed, or failed
		}
		conn := newTCPConn(c, func(tc Conn, m *wire.Msg) {
			// A crashed node loses inbound messages silently: connections
			// may linger a moment after Crash, but nothing reaches the
			// handler.
			if !l.crashed.Load() {
				l.handler(tc, m)
			}
		}, l.rec)
		l.mu.Lock()
		// Crash and Close set their flag and then snapshot conns under mu,
		// so a connection registered here is either in that snapshot or
		// sees the flag. (Checking crashed before taking mu let one accepted
		// during a Crash outlive it: a live link to a server that drops
		// every request.) The closed listener fails the next Accept.
		if l.closed || l.crashed.Load() {
			l.mu.Unlock()
			conn.Close()
			continue
		}
		l.conns[conn] = struct{}{}
		conn.onClose = func() {
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}
		l.mu.Unlock()
		conn.start()
	}
}

// Crash implements Listener: refuse new connections, sever established
// ones, drop anything already inbound.
func (l *TCPListener) Crash() {
	l.crashed.Store(true)
	l.mu.Lock()
	ln := l.ln
	conns := make([]*tcpConn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// Recover implements Recoverer: rebind the original address through the
// listener's bind function and start a fresh accept loop. Connections
// severed by the Crash stay severed — clients redial (see electd's
// Pool.Redial). Fails if the address was taken meanwhile or the listener
// was Closed rather than Crashed.
func (l *TCPListener) Recover() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return net.ErrClosed
	}
	l.mu.Unlock()
	// The old accept loop is on its way out (Crash closed its listener);
	// join it so two loops never run at once.
	l.wg.Wait()
	ln, err := l.bind(l.addr)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	l.mu.Lock()
	if l.closed { // Close raced the rebind
		l.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	l.ln = ln
	l.done = done
	l.acceptErr = nil
	l.wg.Add(1)
	l.mu.Unlock()
	l.crashed.Store(false)
	go l.accept(ln, done)
	return nil
}

// Close implements Listener: stop accepting, close every connection, wait
// for the accept loop to drain.
func (l *TCPListener) Close() error {
	l.mu.Lock()
	l.closed = true
	ln := l.ln
	conns := make([]*tcpConn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	err := ln.Close()
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
	return err
}

// dialTCP connects to a TCP listener; h receives the frames the server
// sends back on this connection, and rec, when non-nil, records the
// connection's spans.
func dialTCP(addr string, h Handler, rec *trace.Recorder) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return startConn(c, h, rec), nil
}

// startConn runs the dialing end of an established stream: h receives the
// frames the server sends back on it.
func startConn(c net.Conn, h Handler, rec *trace.Recorder) Conn {
	conn := newTCPConn(c, h, rec)
	conn.start()
	return conn
}

// tcpIdleBufSize sizes the read buffer a stream connection owns for its
// whole life and reads into between bursts. Almost every read fits it.
// Counting every Read return on loopback TCP, with 32 KiB to read into, a
// solo-tcp-n32 election made ≈1 100–1 150 reads (median 64–127 bytes), ≈11
// of 2–4 KiB, ≈0.9 of 4–8 KiB and ≈0.03 larger; a load-tcp-n16-c4 one
// ≈300–316 reads, 0.1–0.4 of 2–4 KiB and at most 0.12 larger. So 4 KiB
// costs about one extra read per 1 200, and only while a burst lasts.
const tcpIdleBufSize = 4 << 10

// tcpBufSize sizes the burst buffer, and so a burst's largest read: large
// enough that a full quorum broadcast's worth of coalesced frames, or a
// register-array snapshot at benchmark sizes, crosses the socket in one
// read call.
const tcpBufSize = 32 << 10

// tcpReadBufs lends the read loops their tcpBufSize burst buffers: a
// connection holds one only while a burst overflows its idle buffer, so an
// n-node cluster's O(n²) mostly idle stream ends share a few.
var tcpReadBufs = sync.Pool{New: func() any {
	b := make([]byte, tcpBufSize)
	return &b
}}

// tcpConn frames wire messages onto one stream — a TCP socket, or one end
// of a Loopback pipe: Send enqueues encoded frames to a dedicated write
// loop (so one slow peer never stalls a broadcast mid-loop), and a read
// loop decodes inbound frames into the handler. The one stream buffer a
// connection keeps between bursts is its tcpIdleBufSize read buffer: the
// write loop gathers each drain into a frame buffer from the wire package's
// pool and returns it after the one stream write, and the read loop decodes
// frames in place, borrowing a pooled burst buffer only while a burst
// lasts, so the steady-state stream allocates what the decoded messages
// themselves need and a buffer for each frame larger than tcpBufSize.
type tcpConn struct {
	c         net.Conn
	handler   Handler
	rec       *trace.Recorder // fixed at construction; nil = untraced, no stamps
	out       *sendQueue[[]byte]
	closeOnce sync.Once
	onClose   func() // set before start; read-only afterwards
	id        uint64 // StreamID
}

// newTCPConn wraps an established stream; the read/write loops launch on
// start, after the owner has finished wiring onClose.
func newTCPConn(c net.Conn, h Handler, rec *trace.Recorder) *tcpConn {
	return &tcpConn{c: c, handler: h, rec: rec, out: newSendQueue(wire.PutBuf), id: streams.Add(1)}
}

// StreamID names the connection; see transport.StreamID.
func (t *tcpConn) StreamID() uint64 { return t.id }

func (t *tcpConn) start() {
	go t.writeLoop()
	go t.readLoop()
}

// Send implements Conn.
func (t *tcpConn) Send(m *wire.Msg) error {
	frame, err := wire.Append(wire.GetBuf(), m)
	if err != nil {
		wire.PutBuf(frame)
		return err
	}
	return t.SendEncoded(frame)
}

// SendEncoded implements Conn, taking ownership of frame. A severed
// connection refuses every frame: senders that route around dead links
// (electd's quorum calls) go by this error.
func (t *tcpConn) SendEncoded(frame []byte) error {
	return t.enqueued(t.out.put(frame))
}

// SendHeld implements HeldConn: SendEncoded, leaving a parked write loop
// parked.
func (t *tcpConn) SendHeld(frame []byte) error {
	return t.enqueued(t.out.hold(frame))
}

// Kick implements HeldConn.
func (t *tcpConn) Kick() { t.out.kick() }

// enqueued traces a send's queue depth and passes its error on.
func (t *tcpConn) enqueued(depth int, err error) error {
	if err == nil && t.rec != nil {
		t.rec.Event(0, 0, trace.PEnqueue, int64(depth))
	}
	return err
}

// writeLoop drains the outbound queue onto the socket: each wakeup picks
// up every frame already queued, gathers them into one pooled buffer with
// runs coalesced into batch frames (the queue accumulates exactly while
// the previous write is in flight, so the busier the socket, the bigger
// the batches), and writes that buffer with one call — no frame waits for
// a timer, and nothing outlives the drain.
func (t *tcpConn) writeLoop() {
	var frames [][]byte
	for {
		var ok bool
		if frames, ok = t.out.take(frames); !ok {
			return
		}
		var drainT0 int64
		if t.rec != nil {
			drainT0 = trace.Now()
		}
		buf := coalesceFrames(wire.GetBuf(), frames, t.rec != nil)
		_, err := t.c.Write(buf)
		countStreamWrite(len(frames))
		wire.PutBuf(buf)
		if err != nil {
			t.Close()
			return
		}
		if t.rec != nil {
			t.rec.Record(0, 0, trace.PWriteDrain, drainT0, trace.Now()-drainT0, int64(len(frames)))
		}
	}
}

// readLoop reads the stream and dispatches every complete frame straight
// from the buffer it was read into — a batch frame's messages back to back
// with their replies coalesced — through one replyCoalescer for the life of
// the stream. Between bursts it reads into the connection's idle buffer. A
// read that fills all the space it was given (the socket may hold more), or
// a pending frame start that the idle buffer cannot hold, moves the loop to
// a pooled tcpBufSize buffer, and a short read whose pending bytes fit the
// idle buffer moves it back and returns the pooled one; either way the
// pending bytes go along. A frame that outgrows the pooled buffer gets a
// larger one, grown with the bytes actually received (never to the size
// its prefix claims) and dropped once that frame is dispatched. No frame
// body outlives its dispatch (dispatchGroup), so no switch
// gives up a buffer a body still points into. Any stream error — peer
// close, crash, corruption — severs the connection: message loss, the
// model's one failure mode for links.
func (t *tcpConn) readLoop() {
	idle := make([]byte, tcpIdleBufSize)
	var burst *[]byte // from tcpReadBufs while the loop holds one
	defer func() {
		if burst != nil {
			tcpReadBufs.Put(burst)
		}
	}()
	b, r, w := idle, 0, 0 // b[r:w] is read and not yet dispatched
	stamp := 0
	if t.rec != nil {
		stamp = wire.StampSize // a traced peer follows every outer frame with its send stamp
	}
	rc := replyCoalescer{conn: t, run: maxRunBytes}
	for {
		n, rerr := t.c.Read(b[w:])
		filled := n == len(b)-w
		if n > 0 {
			countRead()
			w += n
		}
		for {
			body, size, err := wire.SplitFrame(b[r:w])
			if err != nil {
				t.Close()
				return
			}
			if size == 0 || w-r < size+stamp {
				break // the next frame is still arriving
			}
			if t.rec != nil {
				// Transit from the send stamp to here is the wire span.
				sent := wire.GetStamp(b[r+size:])
				t.rec.Record(0, 0, trace.PWire, sent, trace.Now()-sent, int64(len(body)))
			}
			r += size + stamp
			countIn(len(body))
			if t.out.closed.Load() {
				return
			}
			var decT0 int64
			if t.rec != nil {
				decT0 = trace.Now()
			}
			if err = dispatchGroup(&rc, t.handler, body); err != nil {
				t.Close()
				return
			}
			if t.rec != nil {
				t.rec.Record(0, 0, trace.PReadDecode, decT0, trace.Now()-decT0, int64(len(body)))
			}
		}
		if rerr != nil {
			t.Close()
			return
		}
		switch pending := w - r; {
		case pending < len(idle) && !filled:
			// The burst is over: the start of the next frame moves to the
			// front of the idle buffer, and the burst buffer goes back.
			b, r, w = idle, 0, copy(idle, b[r:w])
			if burst != nil {
				tcpReadBufs.Put(burst)
				burst = nil
			}
		case pending < tcpBufSize && (r > 0 || len(b) != tcpBufSize):
			// A burst, or a frame start the idle buffer cannot hold: it moves
			// to the front of the burst buffer (the one buffer tcpBufSize
			// long), which drops a grown one.
			if burst == nil {
				burst = tcpReadBufs.Get().(*[]byte)
			}
			b, r, w = *burst, 0, copy(*burst, b[r:w])
		case w == len(b):
			// One frame fills the buffer: twice the bytes it has so far.
			grown := make([]byte, 2*pending)
			b, r, w = grown, 0, copy(grown, b[r:w])
		}
	}
}

// Close implements Conn.
func (t *tcpConn) Close() error {
	t.closeOnce.Do(func() {
		t.out.close()
		t.c.Close()
		if t.onClose != nil {
			t.onClose()
		}
	})
	return nil
}
