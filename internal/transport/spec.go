package transport

import (
	"fmt"

	"repro/internal/trace"
)

// Canonical transport names, shared by every layer that selects a socket
// substrate: live.Config, campaign.Config, the electd spec constructors and
// the commands' -transport flags all spell the choice with these strings.
// The in-process "chan" substrate is not a Network — it lives above this
// package — so it has no name here; layers that accept it resolve it before
// building a Spec.
const (
	// SpecTCP is the stream transport: one (or Shards many) long-lived
	// connections per server, length-prefixed frames, kernel backpressure.
	SpecTCP = "tcp"
	// SpecUDP is the datagram transport: wire frames as UDP payloads with
	// MTU-bounded packing and batched syscalls. The transport itself is
	// lossy by design; the electd client pool layers retransmit-and-dedup
	// on top by default (see electd.NewPool), keeping reliability strictly
	// below the quorum semantics.
	SpecUDP = "udp"
)

// Spec is the one description of a socket transport that every layer
// consumes: a name plus the knobs the layers used to spell three different
// ways (live.Config, campaign.Config and electd's options each had their
// own). The zero value means "TCP, loopback host, one connection per
// server, coalescing on, untraced" — every field's zero is the default.
type Spec struct {
	// Name picks the substrate: SpecTCP (default when empty) or SpecUDP.
	Name string
	// Host is the listeners' bind host, without a port. Default 127.0.0.1.
	Host string
	// Shards is how many connections a client pool dials per server, with
	// elections hashed across them so decode and write loops parallelize
	// (see electd.PoolOptions.ConnShards). 0 or 1 means one connection.
	Shards int
	// NoBatch disables the write loops' frame coalescing on every
	// connection: each message travels as its own frame, the pre-batching
	// baseline behavior.
	NoBatch bool
	// Trace, when non-nil, threads the election flight recorder through
	// every connection the network creates and turns on wire stamping.
	Trace *trace.Recorder
	// MaxDatagram (SpecUDP only) bounds the packing of small frames into
	// one datagram; 0 means a conservative single-MTU default. Frames
	// larger than the bound still travel, each as its own datagram.
	MaxDatagram int
}

// Network builds the transport the spec describes. An unknown Name is a
// configuration error, reported loudly rather than defaulted.
func (s Spec) Network() (Network, error) {
	switch s.Name {
	case "", SpecTCP:
		t := NewTCP()
		if s.Host != "" {
			t.Host = s.Host
		}
		t.NoCoalesce = s.NoBatch
		t.Trace = s.Trace
		return t, nil
	case SpecUDP:
		u := NewUDP()
		if s.Host != "" {
			u.Host = s.Host
		}
		u.NoCoalesce = s.NoBatch
		u.Trace = s.Trace
		u.MaxDatagram = s.MaxDatagram
		return u, nil
	default:
		return nil, fmt.Errorf("transport: unknown transport %q (want %q or %q)", s.Name, SpecTCP, SpecUDP)
	}
}

// Reliable reports whether the substrate itself guarantees delivery on a
// healthy link. UDP does not — consumers layer retransmit-and-dedup on top
// (the electd pool arms it by default for unreliable specs).
func (s Spec) Reliable() bool { return s.Name != SpecUDP }

// DaemonListener is the server endpoint a long-running daemon needs: the
// base Listener plus the exit-observation pair — Done closes when the
// endpoint's serve loop has exited, Err reports why (nil for a deliberate
// Close or Crash). Both built-in networks' listeners implement it.
type DaemonListener interface {
	Listener
	Done() <-chan struct{}
	Err() error
}

// ListenAddr binds an explicit address (host:port; port 0 for ephemeral)
// under the spec's transport and serves inbound frames to h — the daemon
// path (cmd/electd -serve), where the address comes from a flag rather
// than the ephemeral-port Listen of in-process clusters.
func (s Spec) ListenAddr(addr string, h Handler) (DaemonListener, error) {
	switch s.Name {
	case "", SpecTCP:
		return ListenTCP(addr, h)
	case SpecUDP:
		return ListenUDP(addr, h)
	default:
		return nil, fmt.Errorf("transport: unknown transport %q (want %q or %q)", s.Name, SpecTCP, SpecUDP)
	}
}
