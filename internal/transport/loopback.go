package transport

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/trace"
)

// Loopback is the in-process Network: TCP's listener and connection code
// (TCPListener, tcpConn) running over net.Pipe streams instead of kernel
// sockets. Every message round-trips through the wire codec, the write
// loops' coalescing and the read loops' in-place frame splitting, so a
// loopback run exercises the deployed stream path byte for byte, minus the
// kernel. Crash, Recover and Close are TCPListener's; a crashed or closed
// address refuses dials until Recover binds it again.
type Loopback struct {
	// Trace, when non-nil, records transport-phase spans (enqueue depth,
	// write-loop drains, wire transit via send stamps, read-loop decodes)
	// on every connection this network creates. Set it before any Listen
	// or Dial. Nil leaves connections untraced and the streams
	// byte-identical.
	Trace *trace.Recorder

	mu        sync.Mutex
	next      int
	listeners map[string]*pipeListener // the bound addresses
}

// NewLoopback creates an empty in-process network.
func NewLoopback() *Loopback {
	return &Loopback{listeners: make(map[string]*pipeListener)}
}

// Listen implements Network at a fresh loop:N address.
func (lo *Loopback) Listen(h Handler) (Listener, error) {
	lo.mu.Lock()
	addr := fmt.Sprintf("loop:%d", lo.next)
	lo.next++
	lo.mu.Unlock()
	return listenTCP(lo.bind, addr, h, lo.Trace)
}

// Dial implements Network: the server end of a fresh pipe goes to the
// listener's accept loop, the client end becomes the returned Conn.
func (lo *Loopback) Dial(addr string, h Handler) (Conn, error) {
	c, err := lo.dialPipe(addr)
	if err != nil {
		return nil, err
	}
	return startConn(c, h, lo.Trace), nil
}

// dialPipe hands the server end of a fresh pipe to the accept loop of the
// listener at addr and returns the client end, the raw stream.
func (lo *Loopback) dialPipe(addr string) (net.Conn, error) {
	lo.mu.Lock()
	l := lo.listeners[addr]
	lo.mu.Unlock()
	if l != nil {
		client, server := net.Pipe()
		select {
		case l.accepts <- server:
			return client, nil
		case <-l.done:
			client.Close()
			server.Close()
		}
	}
	return nil, fmt.Errorf("transport: no loopback listener at %q", addr)
}

// bind is the Loopback's bind function for TCPListener: it registers an
// in-memory listener at addr, which is free — fresh from Listen, or
// unregistered by the Crash that Recover follows.
func (lo *Loopback) bind(addr string) (net.Listener, error) {
	l := &pipeListener{lo: lo, addr: addr, accepts: make(chan net.Conn), done: make(chan struct{})}
	lo.mu.Lock()
	lo.listeners[addr] = l
	lo.mu.Unlock()
	return l, nil
}

// pipeListener is a net.Listener whose streams are handed over by
// Loopback.Dial. Closing it unregisters its address.
type pipeListener struct {
	lo      *Loopback
	addr    string
	accepts chan net.Conn // unbuffered: a dial waits for the accept loop
	done    chan struct{} // closed by Close
	once    sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accepts:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() {
		l.lo.mu.Lock()
		delete(l.lo.listeners, l.addr)
		l.lo.mu.Unlock()
		close(l.done)
	})
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr(l.addr) }

// pipeAddr is a loop:N address.
type pipeAddr string

func (a pipeAddr) Network() string { return "loop" }
func (a pipeAddr) String() string  { return string(a) }
