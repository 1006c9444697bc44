//go:build !race

package transport

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// tcpEchoAllocs is the transport's share of the socket path's per-message
// allocation budget: one collect-shaped request to a TCP listener and its
// ack back — two messages through Send, both write loops, both read loops
// and both handlers — counted across all goroutines in steady state.
// Measured 2 per round trip: the request and reply messages the two
// senders build (Send takes a pointer through an interface, so each
// escapes). Frame buffers, decoded messages and the register name are
// pooled or interned. The budget sits below 5, what the same loop made
// while PutBuf boxed a slice header per frame and every decode copied the
// register name. Run without the race detector, which makes sync.Pool
// lossy.
const tcpEchoAllocs = 4

func TestTCPEchoAllocBudget(t *testing.T) {
	nw := NewTCP()
	ln, err := nw.Listen(func(c Conn, m *wire.Msg) {
		c.Send(&wire.Msg{Kind: wire.KindAck, Call: m.Call}) //nolint:errcheck // a lost ack fails the round trip below
		wire.RecycleMsg(m)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan uint64, 1)
	conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) {
		got <- m.Call
		wire.RecycleMsg(m)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	call := uint64(0)
	roundTrip := func() {
		call++
		if err := conn.Send(&wire.Msg{Kind: wire.KindCollect, Call: call, Reg: "leaderelect/sift/3/status"}); err != nil {
			t.Fatal(err)
		}
		timeout.Reset(5 * time.Second)
		select {
		case <-got:
		case <-timeout.C:
			t.Fatalf("echo %d: no reply", call)
		}
	}
	roundTrip() // the first frame pays connection set-up
	if got := testing.AllocsPerRun(2000, roundTrip); got > tcpEchoAllocs {
		t.Fatalf("TCP echo round trip: %v allocs, budget %d", got, tcpEchoAllocs)
	}
}
