package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/wire"
)

// UDP is deliberately absent from networks(): the shared conformance suite
// pins stream semantics — a corrupt frame severs the connection, a crashed
// listener refuses new dials — that a connectionless transport honestly
// cannot provide. This file is the datagram counterpart: the same
// request/reply, codec and batch contracts where they hold, and pinned
// *loss* semantics exactly where the stream suite pins severing. Loopback
// UDP may drop under buffer overrun, so delivery assertions resend rather
// than assume the first datagram lands.

// udpCollect reads replies until `want` distinct call ids arrive, resending
// the not-yet-acked requests every tick (duplicates are legal on a datagram
// transport; the call-id map dedups them, mirroring the electd pool).
func udpCollect(t *testing.T, conn Conn, got <-chan *wire.Msg, reqs map[uint64]*wire.Msg, want int) map[uint64]bool {
	t.Helper()
	seen := map[uint64]bool{}
	resend := time.NewTicker(100 * time.Millisecond)
	defer resend.Stop()
	deadline := time.After(10 * time.Second)
	for len(seen) < want {
		select {
		case m := <-got:
			if m.Kind != wire.KindAck {
				t.Fatalf("bad reply %+v", m)
			}
			seen[m.Call] = true
		case <-resend.C:
			for call, req := range reqs {
				if !seen[call] {
					conn.Send(req) //nolint:errcheck
				}
			}
		case <-deadline:
			t.Fatalf("%d distinct replies after 10s, want %d", len(seen), want)
		}
	}
	return seen
}

func TestUDPRequestReply(t *testing.T) {
	nw := NewUDP()
	ln, err := nw.Listen(echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	got := make(chan *wire.Msg, 64)
	conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	reqs := map[uint64]*wire.Msg{}
	for call := uint64(1); call <= 8; call++ {
		req := &wire.Msg{Kind: wire.KindPropagate, Election: 3, Call: call, From: 1, Reg: "r",
			Entries: []rt.Entry{{Reg: "r", Owner: 1, Seq: call, Val: int(call)}}}
		reqs[call] = req
		if err := conn.Send(req); err != nil {
			t.Fatalf("send %d: %v", call, err)
		}
	}
	udpCollect(t, conn, got, reqs, 8)
}

// TestUDPBatchRoundTrip: a batch frame rides as one datagram and is
// dispatched to the server handler message by message, in order — ordering
// *within* one datagram is the one sequencing guarantee UDP does make.
func TestUDPBatchRoundTrip(t *testing.T) {
	nw := NewUDP()
	const calls = 6
	order := make(chan uint64, calls*4)
	ln, err := nw.Listen(func(c Conn, m *wire.Msg) {
		order <- m.Call
		c.Send(&wire.Msg{Kind: wire.KindAck, Election: m.Election, Call: m.Call, From: 9}) //nolint:errcheck
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan *wire.Msg, calls*4)
	conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	sendBatch := func() {
		frames := wire.GetBuf()
		for call := uint64(1); call <= calls; call++ {
			if frames, err = wire.Append(frames, &wire.Msg{
				Kind: wire.KindPropagate, Election: 2, Call: call, From: 1, Reg: "r",
				Entries: []rt.Entry{{Reg: "r", Owner: 1, Seq: call, Val: int(call)}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		batch, err := wire.AppendBatchFrame(wire.GetBuf(), calls, frames)
		wire.PutBuf(frames)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SendEncoded(batch); err != nil {
			t.Fatal(err)
		}
	}
	sendBatch()

	// The whole batch is one datagram: either all sub-messages dispatch in
	// order or the datagram was dropped and a resend delivers them, again in
	// order. Wait for one full in-order run.
	deadline := time.After(10 * time.Second)
	want := uint64(1)
	resend := time.NewTicker(100 * time.Millisecond)
	defer resend.Stop()
	for want <= calls {
		select {
		case call := <-order:
			if call == want {
				want++
			} else if call == 1 {
				want = 2 // a duplicate delivery restarted the run
			} else {
				t.Fatalf("batch dispatched out of order: got call %d, want %d", call, want)
			}
		case <-resend.C:
			sendBatch()
		case <-deadline:
			t.Fatalf("batch stalled at call %d of %d", want, calls)
		}
	}
	seen := map[uint64]bool{}
	for len(seen) < calls {
		select {
		case m := <-got:
			if m.Kind != wire.KindAck || m.From != 9 {
				t.Fatalf("bad reply %+v", m)
			}
			seen[m.Call] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("%d distinct replies, want %d", len(seen), calls)
		}
	}
}

// TestUDPCorruptDatagramIsLoss: where the stream suite demands a corrupt
// frame sever the connection, the datagram transport must do the opposite —
// drop the one datagram and keep serving. One bad datagram is loss, not a
// broken stream.
func TestUDPCorruptDatagramIsLoss(t *testing.T) {
	nw := NewUDP()
	served := make(chan uint64, 16)
	ln, err := nw.Listen(func(c Conn, m *wire.Msg) {
		served <- m.Call
		c.Send(&wire.Msg{Kind: wire.KindAck, Call: m.Call, From: 7}) //nolint:errcheck
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan *wire.Msg, 16)
	conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// body: batch kind, count 2, then garbage instead of sub-frames — the
	// exact payload the stream suite uses to sever a TCP connection.
	corrupt := append(wire.GetBuf(), 4, byte(wire.KindBatch), 2, 0xFF, 0xFF)
	if err := conn.SendEncoded(corrupt); err != nil {
		t.Fatal(err)
	}

	// The endpoint must still be fully alive: a good request round-trips.
	req := &wire.Msg{Kind: wire.KindPropagate, Call: 42, From: 1, Reg: "r"}
	if err := conn.Send(req); err != nil {
		t.Fatalf("send after corrupt datagram: %v", err)
	}
	udpCollect(t, conn, got, map[uint64]*wire.Msg{42: req}, 1)

	for {
		select {
		case call := <-served:
			if call != 42 {
				t.Fatalf("corrupt frame reached the handler (call %d)", call)
			}
		default:
			return
		}
	}
}

// TestUDPCrashLossAndRecover: Crash loses in-flight and future messages —
// but, unlike every stream transport, dialing a crashed listener still
// succeeds: there is no handshake, and an unreachable server is
// indistinguishable from loss (the model's one failure mode). Recover
// rebinds the same address and serves again; Recover after Close stays an
// error.
func TestUDPCrashLossAndRecover(t *testing.T) {
	nw := NewUDP()
	ln, err := nw.Listen(echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rec, ok := ln.(Recoverer)
	if !ok {
		t.Fatalf("%T does not implement transport.Recoverer", ln)
	}

	got := make(chan *wire.Msg, 16)
	conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &wire.Msg{Kind: wire.KindPropagate, Call: 1, From: 1, Reg: "r"}
	if err := conn.Send(req); err != nil {
		t.Fatal(err)
	}
	udpCollect(t, conn, got, map[uint64]*wire.Msg{1: req}, 1)

	ln.Crash()
	for i := 0; i < 4; i++ {
		conn.Send(&wire.Msg{Kind: wire.KindPropagate, Call: uint64(10 + i), From: 1, Reg: "r"}) //nolint:errcheck
	}
	select {
	case m := <-got:
		t.Fatalf("crashed listener answered: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	// The connectionless divergence, pinned: dial succeeds, datagrams just
	// go nowhere.
	dead, err := nw.Dial(ln.Addr(), nil)
	if err != nil {
		t.Fatalf("dial to a crashed UDP listener must succeed (loss, not refusal): %v", err)
	}
	dead.Close()

	if err := rec.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	conn2, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
	if err != nil {
		t.Fatalf("redial after recover: %v", err)
	}
	defer conn2.Close()
	req2 := &wire.Msg{Kind: wire.KindPropagate, Call: 2, From: 1, Reg: "r"}
	if err := conn2.Send(req2); err != nil {
		t.Fatalf("send after recover: %v", err)
	}
	udpCollect(t, conn2, got, map[uint64]*wire.Msg{2: req2}, 1)

	ln.Close()
	if err := rec.Recover(); err == nil {
		t.Fatal("Recover after Close succeeded; closed must be final")
	}
}

// TestUDPOversizeFrameIsLoss: a frame beyond the datagram ceiling cannot
// cross this transport; Send reports the loss to the caller instead of
// fragmenting or silently truncating.
func TestUDPOversizeFrameIsLoss(t *testing.T) {
	nw := NewUDP()
	ln, err := nw.Listen(echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := nw.Dial(ln.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	huge := append(wire.GetBuf(), make([]byte, udpMaxDatagram+1)...)
	if err := conn.SendEncoded(huge); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversize SendEncoded: got %v, want errFrameTooLarge", err)
	}
	// The endpoint survives the rejected send.
	if err := conn.Send(&wire.Msg{Kind: wire.KindAck}); err != nil {
		t.Fatalf("send after oversize rejection: %v", err)
	}
}

// TestUDPPeerCacheBounded: the listener keeps one reply conn per source
// address it has heard from, and source addresses are outside input — so
// the cache must stay under udpMaxPeers however many distinct sockets send,
// and a peer dropped from it must still be answered.
func TestUDPPeerCacheBounded(t *testing.T) {
	ln, err := ListenUDP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	raddr, err := net.ResolveUDPAddr("udp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	req, err := wire.Append(nil, &wire.Msg{Kind: wire.KindPropagate, Call: 1, From: 1, Reg: "r"})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *net.UDPConn {
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	reply := make([]byte, 256)
	roundTrip := func(c *net.UDPConn) {
		t.Helper()
		for try := 0; try < 50; try++ { // loopback datagrams may drop: resend
			if _, err := c.Write(req); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
			if _, err := c.Read(reply); err == nil {
				return
			}
		}
		t.Fatalf("no reply to %v", c.LocalAddr())
	}

	first := dial()
	defer first.Close()
	roundTrip(first)
	for i := 0; i < 2*udpMaxPeers; i++ {
		c := dial()
		roundTrip(c)
		c.Close()
	}
	ln.mu.Lock()
	cached := len(ln.peers)
	ln.mu.Unlock()
	if cached > udpMaxPeers {
		t.Fatalf("peer cache holds %d entries after %d sockets, cap %d", cached, 2*udpMaxPeers+1, udpMaxPeers)
	}
	roundTrip(first)
}
