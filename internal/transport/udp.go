package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
	"repro/internal/wire"
)

// UDP is the datagram-backed Network: one UDP socket per endpoint, each
// wire frame (plain or batch) riding as one datagram payload. The quorum
// protocol is a natural datagram workload — requests are small, idempotent
// register reads and writes — so the transport keeps datagram semantics
// honestly: no ordering, no delivery guarantee, a corrupt or truncated
// datagram is silently dropped (loss, the model's one link failure), and a
// severed "connection" is just a closed socket. Reliability belongs one
// layer up: the electd client pool retransmits quorum calls and dedups the
// duplicate replies by default on this transport (see electd.NewPool),
// which keeps the reliability machinery strictly below the quorum
// semantics the paper's proofs use.
//
// The write path packs runs of small batchable frames headed for the same
// peer into one batch-frame datagram, bounded by udpDefaultPack — the
// datagram analogue of the TCP write loop's coalescing. That packing is the
// only batching: each datagram is one portable net.UDPConn write, each read
// one ReadFrom, on every platform.
//
// Listen binds 127.0.0.1 on an ephemeral port — loopback datagrams: real
// sockets, kernel buffers and genuine loss under overrun, no external
// reachability. The zero value is ready to use.
type UDP struct {
	// Trace, when non-nil, records transport-phase spans on every endpoint
	// this network creates and turns on wire stamping: each datagram ends
	// with a send-time stamp so the receiver records wire transit
	// (trace.PWire). Stamping changes the datagram format, so both
	// endpoints must come from the same traced Network — which they do for
	// in-process clusters, the only place tracing is wired.
	Trace *trace.Recorder
}

// Listen implements Network on an ephemeral loopback port.
func (u *UDP) Listen(h Handler) (Listener, error) {
	return listenUDP("127.0.0.1:0", h, u.Trace)
}

// Dial implements Network: a connected UDP socket. There is no handshake,
// so dialing succeeds whether or not a server is listening — an unreachable
// server surfaces as message loss, exactly the model's failure mode; only
// address resolution errors fail the dial.
func (u *UDP) Dial(addr string, h Handler) (Conn, error) {
	return dialUDP(addr, h, u.Trace)
}

const (
	// udpMaxDatagram is the receive-buffer size and the largest frame the
	// transport will put on the wire: the UDP payload ceiling rounded to a
	// power of two. A frame beyond it cannot cross this transport and is
	// dropped at Send — loss, reported to the caller.
	udpMaxDatagram = 64 << 10
	// udpDefaultPack is the packing bound for merged datagrams: a
	// conservative Ethernet-MTU budget, so a packed datagram never
	// fragments on a real network path. A lone frame larger than the bound
	// still travels as its own datagram (loopback and jumbo paths carry
	// it); only the merging is bounded.
	udpDefaultPack = 1400
	// udpPackRun bounds the sub-frame bytes of one merged datagram — a
	// packed drain run or a reply batch — so that the datagram, batch
	// header and trace stamp included, stays within udpDefaultPack.
	udpPackRun = udpDefaultPack - drainOverhead
	// udpSockBuf is the socket buffer depth requested per endpoint. Quorum
	// bursts are n small datagrams wide per participant, all arriving at
	// once; the kernel grants min(this, rmem_max).
	udpSockBuf = 4 << 20
	// udpMaxPeers caps a listener's peer cache. Source addresses are
	// unvalidated outside input — a long-lived server sees every client
	// ephemeral port it was ever sent from, a spoofed flood as many as it
	// likes — so the cache starts over when it reaches the cap.
	udpMaxPeers = 4096
)

// errFrameTooLarge reports a frame that exceeds the datagram ceiling; the
// caller treats it as message loss, like any dead link.
var errFrameTooLarge = errors.New("transport: frame exceeds the UDP datagram ceiling")

// udpReadBufs recycles the endpoints' receive buffers, one udpMaxDatagram
// buffer per read loop. Campaign and benchmark workloads build a cluster —
// dozens of endpoints — per run and drop it after a few elections; a fresh
// 64 KiB per endpoint measured 8 % off the elections/s of such a workload
// (T15 at one election in flight), a recycled one none.
var udpReadBufs = sync.Pool{
	New: func() any {
		b := make([]byte, udpMaxDatagram)
		return &b
	},
}

// pkt is one outbound datagram (or one queued frame on its way into one):
// the payload and the peer. An invalid (zero) addr means the endpoint's
// socket is connected and the kernel routes.
type pkt struct {
	buf []byte
	to  netip.AddrPort
}

// udpEndpoint is one UDP socket with its write and read loops — the shared
// machinery under both a dialed client conn and a server listener. Sends
// enqueue encoded frames; the write loop drains the queue, packs runs of
// small same-destination frames into batch datagrams, and writes them one
// datagram per syscall. The read loop reads one datagram per syscall and
// hands its frame body to dispatch.
type udpEndpoint struct {
	pc  *net.UDPConn
	rec *trace.Recorder
	// dispatch consumes one inbound frame body (length prefix already
	// stripped and validated); src is the datagram's source address. It
	// runs on the read loop.
	dispatch func(src netip.AddrPort, body []byte)
	onClose  func()

	out       *sendQueue[pkt]
	closeOnce sync.Once
	wg        sync.WaitGroup
}

func newUDPEndpoint(pc *net.UDPConn, rec *trace.Recorder) *udpEndpoint {
	// Deep socket buffers: a quorum broadcast is a burst of n datagrams per
	// participant, and the stock ~200KiB rcvbuf overruns under n=32 bursts —
	// every overrun is real loss that costs a full retransmit tick to
	// recover. Best-effort: the kernel clamps to its rmem_max/wmem_max.
	pc.SetReadBuffer(udpSockBuf)  //nolint:errcheck
	pc.SetWriteBuffer(udpSockBuf) //nolint:errcheck
	return &udpEndpoint{
		pc:  pc,
		rec: rec,
		out: newSendQueue(func(p pkt) { wire.PutBuf(p.buf) }),
	}
}

func (e *udpEndpoint) start() {
	e.wg.Add(2)
	go e.writeLoop()
	go e.readLoop()
}

// send enqueues one encoded frame for the peer (zero to on a connected
// socket), taking ownership of the buffer.
func (e *udpEndpoint) send(frame []byte, to netip.AddrPort) error {
	limit := udpMaxDatagram
	if e.rec != nil {
		limit -= wire.StampSize
	}
	if len(frame) > limit {
		wire.PutBuf(frame)
		return errFrameTooLarge
	}
	depth, err := e.out.put(pkt{buf: frame, to: to})
	if err == nil && e.rec != nil {
		e.rec.Event(0, 0, trace.PEnqueue, int64(depth))
	}
	return err
}

func (e *udpEndpoint) close() {
	e.closeOnce.Do(func() {
		e.out.close()
		e.pc.Close()
		if e.onClose != nil {
			e.onClose()
		}
	})
}

// writeLoop drains the outbound queue onto the socket: each wakeup picks up
// every frame already queued (the queue accumulates exactly while the
// previous write is in flight, so the busier the socket, the bigger the
// batches), packs them into datagrams, and writes the datagrams out.
func (e *udpEndpoint) writeLoop() {
	defer e.wg.Done()
	var frames []pkt
	pkts := make([]pkt, 0, 64)
	for {
		var ok bool
		if frames, ok = e.out.take(frames); !ok {
			return
		}
		var drainT0 int64
		if e.rec != nil {
			drainT0 = trace.Now()
		}
		pkts = packDatagrams(pkts[:0], frames, e.rec != nil)
		err := e.sendPackets(pkts)
		for i := range pkts {
			wire.PutBuf(pkts[i].buf)
		}
		clear(pkts)
		if err != nil {
			e.close()
			return
		}
		if e.rec != nil {
			e.rec.Record(0, 0, trace.PWriteDrain, drainT0, trace.Now()-drainT0, int64(len(frames)))
		}
	}
}

// packDatagrams turns a drained run of encoded frames into the datagrams to
// send: every maximal run of batchable frames headed for the same peer (two
// or more, fitting udpPackRun together) merges into one batch-frame
// datagram — the datagram analogue of coalesceFrames — and everything else
// passes through as its own datagram. Merged sources are recycled
// immediately; every returned packet buffer is owned by the caller. With
// stamp set, each datagram gets its send-time trace stamp appended.
func packDatagrams(dst []pkt, frames []pkt, stamp bool) []pkt {
	for i := 0; i < len(frames); {
		j, size := i, 0
		for j < len(frames) && frames[j].to == frames[i].to &&
			size+len(frames[j].buf) <= udpPackRun && wire.BatchableFrame(frames[j].buf) {
			size += len(frames[j].buf)
			j++
		}
		if j-i >= 2 {
			merged, err := wire.AppendBatchHeader(wire.GetBuf(), j-i, size)
			if err != nil {
				// Unreachable under the run bound; fall through frame by
				// frame rather than dropping the run.
				wire.PutBuf(merged)
				j = i
			} else {
				hdr := len(merged)
				for k := i; k < j; k++ {
					merged = append(merged, frames[k].buf...)
					wire.PutBuf(frames[k].buf)
				}
				countBatchOut(j-i, hdr+size)
				dst = append(dst, pkt{buf: appendStamp(merged, stamp), to: frames[i].to})
				i = j
				continue
			}
		}
		// A lone batchable frame, or an unbatchable one: its own datagram.
		countOut(len(frames[i].buf))
		dst = append(dst, pkt{buf: appendStamp(frames[i].buf, stamp), to: frames[i].to})
		i++
	}
	return dst
}

// appendStamp suffixes one outgoing datagram with its send-time trace
// stamp; a no-op when stamping is off.
func appendStamp(buf []byte, stamp bool) []byte {
	if !stamp {
		return buf
	}
	var b [wire.StampSize]byte
	wire.PutStamp(b[:], trace.Now())
	return append(buf, b[:]...)
}

// readLoop reads datagrams off the socket and dispatches each frame body.
// Datagrams are independent, so a corrupt or truncated one is
// dropped alone — loss — rather than severing the endpoint; only a closed
// socket ends the loop. Transient socket errors (an ICMP port-unreachable
// surfacing as ECONNREFUSED on a connected socket, say) are likewise loss:
// the endpoint survives them, which is what lets a client ride out a
// server crash and reach the recovered server on the same socket.
func (e *udpEndpoint) readLoop() {
	defer e.wg.Done()
	bp := udpReadBufs.Get().(*[]byte)
	defer udpReadBufs.Put(bp)
	buf := *bp
	for {
		n, src, err := e.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			if e.out.closed.Load() {
				return
			}
			if errors.Is(err, net.ErrClosed) {
				e.close()
				return
			}
			continue // transient: datagram-level loss
		}
		countRead()
		b := buf[:n]
		if e.rec != nil {
			if len(b) < wire.StampSize {
				continue // truncated: loss
			}
			sent := wire.GetStamp(b[len(b)-wire.StampSize:])
			b = b[:len(b)-wire.StampSize]
			e.rec.Record(0, 0, trace.PWire, sent, trace.Now()-sent, int64(len(b)))
		}
		// One length-prefixed frame per datagram: the prefix is redundant
		// with the datagram length, which is exactly what makes it a
		// truncation check.
		body, err := frameBody(b)
		if err != nil {
			continue // corrupt or truncated: loss
		}
		countIn(len(body))
		var decT0 int64
		if e.rec != nil {
			decT0 = trace.Now()
		}
		e.dispatch(src, body)
		if e.rec != nil {
			e.rec.Record(0, 0, trace.PReadDecode, decT0, trace.Now()-decT0, int64(len(body)))
		}
	}
}

// frameBody strips the length prefix of a buffer that must hold exactly one
// frame — a UDP datagram — so a mismatch is a framing bug or a truncation,
// never a short read.
func frameBody(frame []byte) ([]byte, error) {
	body, n, err := wire.SplitFrame(frame)
	if err == nil && (n == 0 || n != len(frame)) {
		err = fmt.Errorf("transport: malformed frame (%d of %d bytes framed)", n, len(frame))
	}
	return body, err
}

// sendPackets writes the datagrams out: one WriteTo (or Write, on a
// connected socket) each. Per-datagram errors are loss; only a closed
// socket is fatal.
func (e *udpEndpoint) sendPackets(pkts []pkt) error {
	for _, p := range pkts {
		var err error
		if p.to.IsValid() {
			_, err = e.pc.WriteToUDPAddrPort(p.buf, p.to)
		} else {
			_, err = e.pc.Write(p.buf)
		}
		countWrite()
		if err != nil && errors.Is(err, net.ErrClosed) {
			return err
		}
	}
	return nil
}

// udpConn is the dialed (client) side: Conn over one connected socket.
type udpConn struct {
	ep      *udpEndpoint
	handler Handler
	rc      replyCoalescer
}

func dialUDP(addr string, h Handler, rec *trace.Recorder) (Conn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	ep := newUDPEndpoint(pc, rec)
	c := &udpConn{ep: ep, handler: h}
	c.rc.conn, c.rc.run = c, udpPackRun
	ep.dispatch = c.dispatchBody
	ep.start()
	return c, nil
}

func (c *udpConn) dispatchBody(_ netip.AddrPort, body []byte) {
	// A decode error is one bad datagram, not a broken stream: drop it.
	dispatchGroup(&c.rc, c.handler, body) //nolint:errcheck
}

// Send implements Conn.
func (c *udpConn) Send(m *wire.Msg) error {
	frame, err := wire.Append(wire.GetBuf(), m)
	if err != nil {
		wire.PutBuf(frame)
		return err
	}
	return c.SendEncoded(frame)
}

// SendEncoded implements Conn, taking ownership of frame.
func (c *udpConn) SendEncoded(frame []byte) error {
	return c.ep.send(frame, netip.AddrPort{})
}

// Close implements Conn.
func (c *udpConn) Close() error {
	c.ep.close()
	return nil
}

// UDPListener is the server-side UDP endpoint: one socket shared by every
// peer, with a lightweight per-peer Conn materialized per source address so
// handlers reply over "the connection the request arrived on" exactly as
// they do on TCP — for a datagram socket that connection is the listener's
// socket plus the peer's address.
type UDPListener struct {
	handler Handler
	rec     *trace.Recorder
	addr    string // resolved listen address, fixed at listen time; Recover rebinds it
	crashed atomic.Bool

	ep atomic.Pointer[udpEndpoint] // current socket; nil while crashed

	mu     sync.Mutex
	closed bool
	peers  map[netip.AddrPort]*udpPeerConn
	done   chan struct{} // closed when the current read loop exits; swapped by Recover
}

// listenUDP binds addr (host:port; port 0 for ephemeral) and serves
// inbound frames to h, with write-side frame packing on.
func listenUDP(addr string, h Handler, rec *trace.Recorder) (*UDPListener, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	l := &UDPListener{
		handler: h,
		rec:     rec,
		addr:    pc.LocalAddr().String(),
		peers:   make(map[netip.AddrPort]*udpPeerConn),
		done:    make(chan struct{}),
	}
	l.arm(pc, l.done)
	return l, nil
}

// arm wraps a bound socket in an endpoint, starts its loops and installs
// it; done is closed when the endpoint's read loop exits. The loops start
// before the endpoint is published, so whoever takes it from l.ep to close
// it waits for both.
func (l *UDPListener) arm(pc *net.UDPConn, done chan struct{}) {
	ep := newUDPEndpoint(pc, l.rec)
	ep.dispatch = l.dispatchBody
	ep.onClose = func() { close(done) }
	ep.start()
	l.ep.Store(ep)
}

// Addr implements Listener. Fixed at listen time (resolved port for
// ephemeral binds), so it stays dialable across Crash/Recover cycles.
func (l *UDPListener) Addr() string { return l.addr }

// Done is closed when the serve loop has exited — after Close or Crash. A
// daemon selects on it; re-read after any Recover, which arms a fresh
// channel.
func (l *UDPListener) Done() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done
}

// Err reports why the serve loop exited. Always nil: a datagram read loop
// rides out every socket error as loss and ends only on a deliberate Close
// or Crash.
func (l *UDPListener) Err() error { return nil }

// dispatchBody routes one inbound frame body to the handler via the
// source's peer conn, so replies travel back to the right address (and the
// replies of one inbound batch coalesce into one outbound datagram).
func (l *UDPListener) dispatchBody(src netip.AddrPort, body []byte) {
	if l.crashed.Load() {
		return // a crashed node loses inbound messages silently
	}
	p := l.peer(src)
	dispatchGroup(&p.rc, l.handler, body) //nolint:errcheck // one bad datagram is loss, not severance
}

// peer returns the reply conn for one source address, creating it on first
// contact. Peers carry no per-connection state beyond the address, so the
// map is only a reuse cache: Crash clears it, and so does reaching
// udpMaxPeers — a dropped peer is rebuilt by its next datagram.
func (l *UDPListener) peer(src netip.AddrPort) *udpPeerConn {
	l.mu.Lock()
	p := l.peers[src]
	if p == nil {
		if len(l.peers) >= udpMaxPeers {
			clear(l.peers)
		}
		p = &udpPeerConn{l: l, to: src}
		p.rc.conn, p.rc.run = p, udpPackRun
		l.peers[src] = p
	}
	l.mu.Unlock()
	return p
}

// Crash implements Listener: drop the socket, forget the peers, lose
// anything inbound or queued. The state flips under l.mu, so a racing
// Recover or Close orders wholly before or after it.
func (l *UDPListener) Crash() {
	l.mu.Lock()
	l.crashed.Store(true)
	ep := l.ep.Swap(nil)
	l.peers = make(map[netip.AddrPort]*udpPeerConn)
	l.mu.Unlock()
	if ep != nil {
		ep.close()
		ep.wg.Wait()
	}
}

// Recover implements Recoverer: rebind the original address and start
// fresh loops. Clients that kept their sockets reach the server again
// immediately; redialing (electd's Pool.Redial) works too. Fails if the
// port was taken meanwhile or the listener was Closed rather than Crashed.
func (l *UDPListener) Recover() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return net.ErrClosed
	}
	l.mu.Unlock()
	laddr, err := net.ResolveUDPAddr("udp", l.addr)
	if err != nil {
		return err
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed { // Close raced the rebind
		pc.Close()
		return net.ErrClosed
	}
	// Armed under l.mu: a racing Close or Crash takes this endpoint down.
	l.done = done
	l.arm(pc, done)
	l.crashed.Store(false)
	return nil
}

// Close implements Listener: stop serving, drop the socket, wait for the
// loops to drain.
func (l *UDPListener) Close() error {
	l.mu.Lock()
	l.closed = true
	ep := l.ep.Swap(nil)
	l.mu.Unlock()
	if ep != nil {
		ep.close()
		ep.wg.Wait()
	}
	return nil
}

// udpPeerConn is the Conn a server handler replies through: the listener's
// socket aimed at one peer address. Closing it severs nothing — peers have
// no connection state to sever — it just drops the reuse-cache entry. One
// read loop serves every peer, so the reply coalescer lives here, per peer:
// a reply can only ever leave for the address it was sent to.
type udpPeerConn struct {
	l  *UDPListener
	to netip.AddrPort
	rc replyCoalescer
}

// Send implements Conn.
func (p *udpPeerConn) Send(m *wire.Msg) error {
	frame, err := wire.Append(wire.GetBuf(), m)
	if err != nil {
		wire.PutBuf(frame)
		return err
	}
	return p.SendEncoded(frame)
}

// SendEncoded implements Conn, taking ownership of frame. Replies after a
// crash (or mid-Recover) are loss, like sends on any dead link.
func (p *udpPeerConn) SendEncoded(frame []byte) error {
	ep := p.l.ep.Load()
	if ep == nil {
		wire.PutBuf(frame)
		return ErrClosed
	}
	return ep.send(frame, p.to)
}

// Close implements Conn.
func (p *udpPeerConn) Close() error {
	p.l.mu.Lock()
	delete(p.l.peers, p.to)
	p.l.mu.Unlock()
	return nil
}
