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
	// SpecTCP is the stream transport: one long-lived connection per
	// server, length-prefixed frames, kernel backpressure.
	SpecTCP = "tcp"
	// SpecUDP is the datagram transport: wire frames as UDP payloads with
	// MTU-bounded packing, one datagram per syscall. The transport itself is
	// lossy by design; the electd client pool layers retransmit-and-dedup
	// on top by default (see electd.NewPool), keeping reliability strictly
	// below the quorum semantics.
	SpecUDP = "udp"
)

// Spec is the one description of a socket transport that every layer
// consumes: the substrate's name and the flight recorder. The zero value
// means "TCP, untraced" — every field's zero is the default. Networks the
// spec builds listen on loopback; a daemon binds an explicit address
// through ListenAddr.
type Spec struct {
	// Name picks the substrate: SpecTCP (default when empty) or SpecUDP.
	Name string
	// Trace, when non-nil, threads the election flight recorder through
	// every connection the network creates and turns on wire stamping.
	Trace *trace.Recorder
}

// Network builds the transport the spec describes. An unknown Name is a
// configuration error, reported loudly rather than defaulted.
func (s Spec) Network() (Network, error) {
	switch s.Name {
	case "", SpecTCP:
		return &TCP{Trace: s.Trace}, nil
	case SpecUDP:
		return &UDP{Trace: s.Trace}, nil
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
		return listenTCP(bindTCP, addr, h, nil)
	case SpecUDP:
		return listenUDP(addr, h, nil)
	default:
		return nil, fmt.Errorf("transport: unknown transport %q (want %q or %q)", s.Name, SpecTCP, SpecUDP)
	}
}
