// Package transport carries wire frames between the nodes of an election
// cluster: the network boundary beneath internal/electd and the live
// backend's TCP and UDP modes.
//
// The abstraction is a message-oriented, connection-based RPC substrate.
// Servers Listen and receive every inbound message together with the Conn
// it arrived on; replies go back over that same connection, so servers need
// no routing state and never dial. Clients Dial each server once and keep
// the connection for the life of the run — the connection pool is the set
// of Conns, each with its own write loop.
//
// Three Networks implement the interface: TCP (real sockets on the host,
// one listener per server, length-prefixed frames on the stream), Loopback
// (the same listener and connection code over in-process net.Pipe streams:
// every byte TCP would write, minus the kernel — the test double) and UDP
// (one datagram socket per endpoint, one frame per datagram, lossy by
// design: its "connection" is a socket plus a peer address — see udp.go).
// The fault engine's crashes plug in here: a crashed node's Listener drops
// its connections and stops answering (transport.Listener.Crash). Its link
// faults — loss and injected latency — act above, in the electd client,
// through the participant's fault.Profile. A read loop decodes every
// message it reads and hands it to its handler: whether a reply counts,
// and whether it died on its link, is the electd reply router's decision
// alone.
package transport

import (
	"errors"
	"sync/atomic"

	"repro/internal/wire"
)

// ErrClosed is returned by Send on a connection that has been closed —
// locally, by the peer, or by a crash. Senders treat it as message loss,
// exactly what the model prescribes for a dead link.
var ErrClosed = errors.New("transport: connection closed")

// Conn is one bidirectional message stream. Send enqueues a frame for
// asynchronous delivery: it never waits for the peer to process the message
// (backpressure applies only when the write queue is full). The message is
// encoded before Send returns and never retained, so callers may reuse m —
// and everything it references — immediately. Implementations must be safe
// for concurrent Send and SendEncoded.
//
// SendEncoded is the allocation-lean fast path: it enqueues an
// already-encoded frame (plain or batch, built with wire.Append or
// wire.AppendBatchFrame, ideally in a buffer from wire.GetBuf) and takes
// ownership of the slice — the transport recycles it through wire.PutBuf
// once the bytes are on the wire, so the caller must not touch it again.
type Conn interface {
	Send(m *wire.Msg) error
	SendEncoded(frame []byte) error
	Close() error
}

// HeldConn is a Conn whose sends can wait for each other: SendHeld is
// SendEncoded except that a write loop parked on an empty queue stays
// parked, and Kick wakes it for the frames SendHeld left queued. So the
// requests of several senders woken together leave in one drain, one
// write, instead of the first one alone. A held frame that fills the
// connection's send queue, or finds it full, wakes the loop anyway, so a
// burst larger than the queue never blocks on itself. Whoever holds a frame
// owes the connection a Kick; until one comes, or a SendEncoded, the frame
// waits. The stream connections of TCP and Loopback implement it; UDP's
// datagram connections do not.
type HeldConn interface {
	Conn
	SendHeld(frame []byte) error
	Kick()
}

// Handler consumes inbound messages. On the listen side it runs on the
// connection's read loop — replies are sent via c; a handler that blocks
// forever stalls only its own connection. The messages of one inbound
// batch frame are dispatched back to back in batch order, and replies the
// handler sends during that dispatch are coalesced into one outbound batch
// frame. The Conn handed to a handler is only guaranteed valid for the
// duration of the call; do not retain it for replies from other goroutines
// (a reply sent through it later goes to the same peer while the connection
// lives, but on its own or in some later batch).
type Handler func(c Conn, m *wire.Msg)

// StreamID names the connection a handler was given c for, when that
// connection is a stream: it delivers its frames whole, in order and
// without loss for as long as it lives (TCP and the in-process loopback
// do; UDP does not). The name is nonzero, unique within the process and the
// same for every message the connection delivers, whether the handler sees
// the connection itself or its reply coalescer — so a handler may take it
// that the peer has received every earlier reply it sent through any c of
// that name before it receives the next. It is 0 for any other Conn.
//
// A wrapper that forwards a stream's frames faithfully may forward the
// name too, by implementing the same StreamID method.
func StreamID(c Conn) uint64 {
	if s, ok := c.(interface{ StreamID() uint64 }); ok {
		return s.StreamID()
	}
	return 0
}

// streams numbers stream connections, from 1.
var streams atomic.Uint64

// Listener is a server-side endpoint accepting connections.
type Listener interface {
	// Addr is the dialable address of this endpoint.
	Addr() string
	// Crash simulates a node failure: every established connection is
	// dropped, new connections are refused, and inbound messages stop
	// reaching the handler. Unlike Close it is abrupt — no draining.
	Crash()
	// Close shuts the endpoint down gracefully.
	Close() error
}

// Recoverer is implemented by listeners that can come back from a Crash:
// Recover re-arms the endpoint at its original address, so clients that
// redial reach the server again — the transport half of crash-recovery.
// Both built-in networks' listeners implement it. Recover after Close is
// an error: Close is teardown, Crash is a fault.
type Recoverer interface {
	Recover() error
}

// Network is a transport implementation: a dialer/listener factory whose
// addresses are mutually reachable.
type Network interface {
	Listen(h Handler) (Listener, error)
	// Dial connects to a listener. h receives the messages the server sends
	// back over this connection; it runs on the connection's read loop and
	// must not be nil — a datagram conn takes whatever reaches its port.
	Dial(addr string, h Handler) (Conn, error)
}
