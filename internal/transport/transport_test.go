package transport

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/wire"
)

// networks under test: the stream Networks — TCP over kernel sockets and
// Loopback, the same connection code over in-memory pipes — must pass the
// same conformance suite. UDP is excluded on purpose — it cannot promise
// that corrupt frames sever or that crashed listeners refuse dials — and
// gets its own datagram conformance suite in udp_test.go.
func networks() map[string]func() Network {
	return map[string]func() Network{
		"loopback": func() Network { return NewLoopback() },
		"tcp":      func() Network { return NewTCP() },
	}
}

// echoHandler replies to every propagate with an ack carrying the same
// call id.
func echoHandler(c Conn, m *wire.Msg) {
	c.Send(&wire.Msg{Kind: wire.KindAck, Election: m.Election, Call: m.Call, From: 7}) //nolint:errcheck
}

func TestRequestReply(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			ln, err := nw.Listen(echoHandler)
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

			for call := uint64(1); call <= 8; call++ {
				req := &wire.Msg{Kind: wire.KindPropagate, Election: 3, Call: call, From: 1, Reg: "r",
					Entries: []rt.Entry{{Reg: "r", Owner: 1, Seq: call, Val: int(call)}}}
				if err := conn.Send(req); err != nil {
					t.Fatalf("send %d: %v", call, err)
				}
			}
			seen := map[uint64]bool{}
			for i := 0; i < 8; i++ {
				select {
				case m := <-got:
					if m.Kind != wire.KindAck || m.Election != 3 || m.From != 7 {
						t.Fatalf("bad reply %+v", m)
					}
					seen[m.Call] = true
				case <-time.After(5 * time.Second):
					t.Fatalf("reply %d never arrived", i)
				}
			}
			if len(seen) != 8 {
				t.Fatalf("%d distinct replies, want 8", len(seen))
			}
		})
	}
}

// TestCodecRoundTripThroughTransport: payload values survive the journey
// byte for byte on every network (loopback encodes/decodes too, by design).
func TestCodecRoundTripThroughTransport(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			got := make(chan *wire.Msg, 1)
			ln, err := nw.Listen(func(_ Conn, m *wire.Msg) { got <- m })
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			conn, err := nw.Dial(ln.Addr(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			sent := &wire.Msg{Kind: wire.KindPropagate, Election: 5, Call: 9, From: 2, Reg: "pp",
				Entries: []rt.Entry{{Reg: "pp", Owner: 2, Seq: 4, Val: "payload"}}}
			if err := conn.Send(sent); err != nil {
				t.Fatal(err)
			}
			select {
			case m := <-got:
				if m.Reg != "pp" || len(m.Entries) != 1 || m.Entries[0].Val != "payload" || m.Entries[0].Seq != 4 {
					t.Fatalf("message mangled in transit: %+v", m)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("message never arrived")
			}
		})
	}
}

// TestCrashDropsEverything: after Listener.Crash, inbound messages are
// lost (no replies), new dials fail, and Send to severed connections
// reports loss rather than blocking.
func TestCrashDropsEverything(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			ln, err := nw.Listen(echoHandler)
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

			// Sanity: alive before the crash.
			conn.Send(&wire.Msg{Kind: wire.KindPropagate, Call: 1, Reg: "r"}) //nolint:errcheck
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatal("no reply before crash")
			}

			ln.Crash()
			// Sends after the crash either error (severed) or vanish; no
			// reply may ever arrive.
			for i := 0; i < 4; i++ {
				conn.Send(&wire.Msg{Kind: wire.KindPropagate, Call: uint64(10 + i), Reg: "r"}) //nolint:errcheck
			}
			select {
			case m := <-got:
				t.Fatalf("crashed node answered: %+v", m)
			case <-time.After(50 * time.Millisecond):
			}
			if _, err := nw.Dial(ln.Addr(), nil); err == nil {
				// TCP may accept briefly in the kernel backlog; but a
				// crashed listener must not complete new connections at the
				// transport level: its listener is closed (a socket, or
				// Loopback's unregistered address), so Dial errors.
				t.Fatal("dial to a crashed listener succeeded")
			}
		})
	}
}

// TestGracefulClose: Close severs connections without panics; subsequent
// sends report ErrClosed-style loss.
func TestGracefulClose(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			ln, err := nw.Listen(echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := nw.Dial(ln.Addr(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := ln.Close(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				if err := conn.Send(&wire.Msg{Kind: wire.KindAck}); err != nil {
					break // severed, as required
				}
				if time.Now().After(deadline) {
					t.Fatal("sends kept succeeding long after listener close")
				}
				time.Sleep(time.Millisecond)
			}
			conn.Close()
		})
	}
}

// TestConcurrentSenders: many goroutines share connections to one server;
// every request is answered exactly once. Run under -race in CI.
func TestConcurrentSenders(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			ln, err := nw.Listen(echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			const clients, perClient = 8, 50
			var wg sync.WaitGroup
			errs := make([]error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					got := make(chan *wire.Msg, perClient)
					conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
					if err != nil {
						errs[c] = err
						return
					}
					defer conn.Close()
					for i := 0; i < perClient; i++ {
						if err := conn.Send(&wire.Msg{Kind: wire.KindPropagate, Call: uint64(i), Reg: "r"}); err != nil {
							errs[c] = err
							return
						}
					}
					for i := 0; i < perClient; i++ {
						select {
						case <-got:
						case <-time.After(10 * time.Second):
							errs[c] = fmt.Errorf("client %d: reply %d missing", c, i)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestBatchRoundTripThroughTransport: a batch frame sent with SendEncoded
// is dispatched to the server handler message by message, in order, and the
// replies issued during the dispatch come back coalesced — one inbound
// frame, one outbound frame, n messages each way. Every Network must agree.
func TestBatchRoundTripThroughTransport(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			const calls = 6
			order := make(chan uint64, calls)
			ln, err := nw.Listen(func(c Conn, m *wire.Msg) {
				order <- m.Call
				c.Send(&wire.Msg{Kind: wire.KindAck, Election: m.Election, Call: m.Call, From: 9}) //nolint:errcheck
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			got := make(chan *wire.Msg, calls)
			conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

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

			for want := uint64(1); want <= calls; want++ {
				select {
				case call := <-order:
					if call != want {
						t.Fatalf("batch dispatched out of order: got call %d, want %d", call, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("sub-message %d never dispatched", want)
				}
			}
			seen := map[uint64]bool{}
			for i := 0; i < calls; i++ {
				select {
				case m := <-got:
					if m.Kind != wire.KindAck || m.From != 9 {
						t.Fatalf("bad reply %+v", m)
					}
					seen[m.Call] = true
				case <-time.After(5 * time.Second):
					t.Fatalf("reply %d never arrived", i)
				}
			}
			if len(seen) != calls {
				t.Fatalf("%d distinct replies, want %d", len(seen), calls)
			}
		})
	}
}

// TestCorruptFrameSeversConnection: a frame that fails to decode — here a
// declared batch with garbage inside — kills the connection rather than
// being skipped, on every network.
func TestCorruptFrameSeversConnection(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			served := make(chan struct{}, 4)
			ln, err := nw.Listen(func(_ Conn, m *wire.Msg) { served <- struct{}{} })
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			conn, err := nw.Dial(ln.Addr(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			// body: batch kind, count 2, then garbage instead of sub-frames.
			corrupt := append(wire.GetBuf(), 4, byte(wire.KindBatch), 2, 0xFF, 0xFF)
			if err := conn.SendEncoded(corrupt); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				if err := conn.Send(&wire.Msg{Kind: wire.KindAck}); err != nil {
					break // severed, as required
				}
				if time.Now().After(deadline) {
					t.Fatal("connection survived a corrupt frame")
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case <-served:
				t.Fatal("corrupt frame reached the handler")
			default:
			}
		})
	}
}

// TestCoalesceFrames: the write loop's gather wraps runs of plain frames
// into batch frames without reordering or altering a single message,
// passes pre-batched frames through unbatched (no nesting), and actually
// reduces the frame count — pinned deterministically on the bytes two
// drains append to one stream.
func TestCoalesceFrames(t *testing.T) {
	mkFrame := func(call uint64) []byte {
		frame, err := wire.Append(wire.GetBuf(), &wire.Msg{Kind: wire.KindAck, Call: call})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	preBatched, err := wire.EncodeBatch([]*wire.Msg{
		{Kind: wire.KindAck, Call: 100},
		{Kind: wire.KindAck, Call: 101},
	})
	if err != nil {
		t.Fatal(err)
	}

	// First drain: a run of 3, a pre-batched frame, then a lone plain frame.
	// Second drain: a run of 2.
	stream := coalesceFrames(nil, [][]byte{
		mkFrame(1), mkFrame(2), mkFrame(3),
		append(wire.GetBuf(), preBatched...),
		mkFrame(4),
	}, false)
	stream = coalesceFrames(stream, [][]byte{mkFrame(5), mkFrame(6)}, false)

	var wireFrames int
	var calls []uint64
	for len(stream) > 0 {
		body, n, err := wire.SplitFrame(stream)
		if err != nil || n == 0 {
			t.Fatalf("stream does not split into whole frames: n %d, %v", n, err)
		}
		stream = stream[n:]
		wireFrames++
		ms, err := wire.DecodeFrames(nil, body)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			calls = append(calls, m.Call)
		}
	}
	want := []uint64{1, 2, 3, 100, 101, 4, 5, 6}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("messages reordered or lost: got %v, want %v", calls, want)
	}
	// frames on the wire: batch{1,2,3}, pre-batched{100,101}, plain{4},
	// batch{5,6} — the run of 3 and the run of 2 each collapsed.
	if wireFrames != 4 {
		t.Fatalf("%d frames on the wire, want 4 (runs collapsed into batches)", wireFrames)
	}
}

// TestTCPReadLoopSplitsAnyChunking: a stream read loop takes frames off the
// stream however its bytes arrive. A raw TCP socket, or the raw client end
// of a Loopback pipe, writes plain frames, batch frames, frames one byte
// either side of the idle and burst buffer sizes, runs of small frames that
// together overflow the idle buffer and frames larger than the burst
// buffer — on a traced network each outer frame followed by its send stamp
// — in random chunks from one byte up, and every message must reach the
// handler exactly once, in order.
func TestTCPReadLoopSplitsAnyChunking(t *testing.T) {
	tcpDial := func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	lo, stampedLo := NewLoopback(), NewLoopback()
	stampedLo.Trace = trace.NewRecorder(1 << 12)
	for _, arm := range []struct {
		name    string
		nw      Network
		stamped bool
		dial    func(addr string) (net.Conn, error)
	}{
		{"plain", NewTCP(), false, tcpDial},
		{"stamped", &TCP{Host: "127.0.0.1", Trace: trace.NewRecorder(1 << 12)}, true, tcpDial},
		{"loopback", lo, false, lo.dialPipe},
		{"loopback-stamped", stampedLo, true, stampedLo.dialPipe},
	} {
		t.Run(arm.name, func(t *testing.T) {
			seed := uint64(time.Now().UnixNano())
			t.Logf("seed %d", seed)
			rng := rand.New(rand.NewPCG(seed, 0))

			stamp := 0
			if arm.stamped {
				stamp = wire.StampSize
			}
			var stream []byte
			var want []uint64
			msg := func(i, payload int) *wire.Msg {
				call := uint64(len(want) + 1 + i)
				return &wire.Msg{Kind: wire.KindPropagate, Call: call, Reg: "r",
					Entries: []rt.Entry{{Reg: "r", Owner: 1, Seq: call, Val: strings.Repeat("x", payload)}}}
			}
			// send appends one outer frame carrying a message per payload
			// and returns the bytes it appended.
			send := func(payloads ...int) int {
				msgs := make([]*wire.Msg, len(payloads))
				for i, p := range payloads {
					msgs[i] = msg(i, p)
				}
				frame, err := wire.EncodeBatch(msgs)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range msgs {
					want = append(want, m.Call)
				}
				stream = append(stream, frame...)
				if arm.stamped {
					stream = appendStamp(stream, true)
				}
				return len(frame) + stamp
			}
			// sendSized sends one message whose frame, stamp included, is
			// exactly size bytes.
			sendSized := func(size int) {
				for p := size; p > 0; p-- {
					frame, err := wire.Encode(msg(0, p))
					if err != nil {
						t.Fatal(err)
					}
					if len(frame)+stamp == size {
						send(p)
						return
					}
				}
				t.Fatalf("no payload makes a %d-byte frame", size)
			}
			for len(want) < 400 {
				switch rng.IntN(10) {
				case 0: // larger than the burst buffer
					send(tcpBufSize + rng.IntN(3*tcpBufSize))
				case 1, 2:
					var payloads []int
					for range 2 + rng.IntN(7) {
						payloads = append(payloads, rng.IntN(64))
					}
					send(payloads...)
				case 3: // one byte short of a buffer, its size, one byte over
					sendSized([]int{tcpIdleBufSize, tcpBufSize}[rng.IntN(2)] + rng.IntN(3) - 1)
				case 4: // a run of small frames that overflows the idle buffer
					for sum := 0; sum <= tcpIdleBufSize; {
						sum += send(64 + rng.IntN(256))
					}
				default:
					send(rng.IntN(64))
				}
			}

			got := make(chan uint64, len(want))
			ln, err := arm.nw.Listen(func(_ Conn, m *wire.Msg) { got <- m.Call })
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close() //nolint:errcheck // teardown
			raw, err := arm.dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close() //nolint:errcheck // teardown
			for rest := stream; len(rest) > 0; {
				chunk := min(len(rest), 1+rng.IntN(1<<rng.IntN(17)))
				if _, err := raw.Write(rest[:chunk]); err != nil {
					t.Fatal(err)
				}
				rest = rest[chunk:]
			}
			for i, call := range want {
				select {
				case c := <-got:
					if c != call {
						t.Fatalf("message %d: call %d, want %d", i, c, call)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("message %d of %d never arrived", i, len(want))
				}
			}
			raw.Close() //nolint:errcheck // ends the server's read loop
			waitConns(t, ln.(*TCPListener), 0)
			if len(got) != 0 {
				t.Fatalf("%d messages arrived twice", len(got))
			}
		})
	}
}

// waitConns waits until l holds exactly want accepted connections — until
// the read loops of the others have ended.
func waitConns(t *testing.T, l *TCPListener, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		n := len(l.conns)
		l.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("listener holds %d connections, want %d", n, want)
		}
	}
}

// captureConn records the frames a read loop's handler replies with.
type captureConn struct{ frames [][]byte }

func (c *captureConn) Send(m *wire.Msg) error {
	frame, err := wire.Append(nil, m)
	if err != nil {
		return err
	}
	return c.SendEncoded(frame)
}
func (c *captureConn) SendEncoded(frame []byte) error {
	c.frames = append(c.frames, frame)
	return nil
}
func (c *captureConn) Close() error { return nil }

// TestReplyCoalescerServesEveryGroup: a connection's one reply coalescer
// lives as long as the connection, so it must start every group clean —
// each inbound batch's replies leave as exactly one batch frame with
// exactly that group's replies, and a group that replies nothing sends
// nothing.
func TestReplyCoalescerServesEveryGroup(t *testing.T) {
	reply := true
	h := func(c Conn, m *wire.Msg) {
		if reply {
			c.Send(&wire.Msg{Kind: wire.KindAck, Call: m.Call}) //nolint:errcheck // captureConn never fails
		}
	}
	conn := &captureConn{}
	rc := replyCoalescer{conn: conn}
	for g, size := range []int{3, 16, 2} {
		first := 100 * (g + 1)
		if err := dispatchGroup(&rc, h, nil, collectBatch(t, first, size)); err != nil {
			t.Fatal(err)
		}
		if len(conn.frames) != g+1 {
			t.Fatalf("group %d: %d reply frames so far, want %d", g, len(conn.frames), g+1)
		}
		if got := ackCalls(t, conn.frames[g]); len(got) != size || got[0] != uint64(first) || got[size-1] != uint64(first+size-1) {
			t.Fatalf("group %d: reply frame answers calls %v, want %d..%d", g, got, first, first+size-1)
		}
	}
	reply = false
	if err := dispatchGroup(&rc, h, nil, collectBatch(t, 900, 4)); err != nil {
		t.Fatal(err)
	}
	if len(conn.frames) != 3 {
		t.Fatalf("a group that replied nothing sent %d frames", len(conn.frames)-3)
	}
}

// TestViewMemoMetrics: RegisterMetrics puts the view memo's counters on
// the registry, one series per shard, and a view dispatched twice — on two
// connections — shows up as a miss and then a hit.
func TestViewMemoMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	name := fmt.Sprintf("metrics/%d", rand.Uint64())
	frame, err := wire.Encode(&wire.Msg{Kind: wire.KindView, Reg: name,
		Entries: []rt.Entry{{Reg: name, Owner: 1, Seq: 1, Val: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	body, err := frameBody(frame)
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	h := func(_ Conn, m *wire.Msg) { wire.PutMsg(m) }
	for _, rc := range []*replyCoalescer{{conn: &captureConn{}}, {conn: &captureConn{}}} {
		if err := dispatchGroup(rc, h, nil, body); err != nil {
			t.Fatal(err)
		}
	}
	after := reg.Snapshot()
	series := 0
	for _, p := range after.Counters {
		if p.Name == "wire_view_memo_hits_total" {
			series++
		}
	}
	if series != wire.ViewMemoShards {
		t.Fatalf("%d wire_view_memo_hits_total series, want one per shard (%d)", series, wire.ViewMemoShards)
	}
	for _, metric := range []string{"wire_view_memo_hits_total", "wire_view_memo_misses_total"} {
		if after.Total(metric) <= before.Total(metric) {
			t.Fatalf("%s did not move: %d → %d", metric, before.Total(metric), after.Total(metric))
		}
	}
}

// TestLateReplyReachesItsOwnPeer: a UDP listener's one read loop serves
// every peer, each through its own coalescer, so a handler that breaks the
// contract and replies through a Conn it kept from an earlier call — even
// while another peer's group is being dispatched — still reaches the peer
// that Conn stood for, never the one being served.
func TestLateReplyReachesItsOwnPeer(t *testing.T) {
	a, b := &captureConn{}, &captureConn{}
	rcA, rcB := replyCoalescer{conn: a}, replyCoalescer{conn: b}
	var kept Conn
	h := func(c Conn, m *wire.Msg) {
		if kept == nil {
			kept = c
		}
		c.Send(&wire.Msg{Kind: wire.KindAck, Call: m.Call}) //nolint:errcheck // captureConn never fails
		if m.Call == 201 {
			kept.Send(&wire.Msg{Kind: wire.KindAck, Call: 999}) //nolint:errcheck
		}
	}
	if err := dispatchGroup(&rcA, h, nil, collectBatch(t, 100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := dispatchGroup(&rcB, h, nil, collectBatch(t, 200, 3)); err != nil {
		t.Fatal(err)
	}
	if len(a.frames) != 2 || len(b.frames) != 1 {
		t.Fatalf("peer a got %d frames, peer b %d; want a's batch and its late reply, and b's batch", len(a.frames), len(b.frames))
	}
	if got := ackCalls(t, a.frames[1]); len(got) != 1 || got[0] != 999 {
		t.Fatalf("peer a's late frame answers calls %v, want [999]", got)
	}
	if got := ackCalls(t, b.frames[0]); len(got) != 3 || got[0] != 200 || got[2] != 202 {
		t.Fatalf("peer b's batch answers calls %v, want [200 201 202]", got)
	}
}

// collectBatch is the body of a batch frame of count collect requests with
// call ids first, first+1, ….
func collectBatch(t *testing.T, first, count int) []byte {
	t.Helper()
	msgs := make([]*wire.Msg, count)
	for i := range msgs {
		msgs[i] = &wire.Msg{Kind: wire.KindCollect, Call: uint64(first + i), Reg: "r"}
	}
	frame, err := wire.EncodeBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	body, err := frameBody(frame)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// ackCalls decodes one reply frame, plain or batch, into its call ids.
func ackCalls(t *testing.T, frame []byte) []uint64 {
	t.Helper()
	body, err := frameBody(frame)
	if err != nil {
		t.Fatal(err)
	}
	acks, err := wire.DecodeFrames(nil, body)
	if err != nil {
		t.Fatalf("reply frame does not decode: %v", err)
	}
	calls := make([]uint64, len(acks))
	for i, a := range acks {
		calls[i] = a.Call
	}
	return calls
}

// TestTracedStreamsRecordTheSamePhases: a traced echo records the same
// transport phases on Loopback as on TCP — enqueue, write-loop drain, wire
// transit from the send stamp, read-loop decode — because the two run one
// connection code and differ only in what carries the bytes.
func TestTracedStreamsRecordTheSamePhases(t *testing.T) {
	want := map[trace.Phase]bool{trace.PEnqueue: true, trace.PWriteDrain: true, trace.PWire: true, trace.PReadDecode: true}
	traced := map[string]func(*trace.Recorder) Network{
		"loopback": func(rec *trace.Recorder) Network { lo := NewLoopback(); lo.Trace = rec; return lo },
		"tcp":      func(rec *trace.Recorder) Network { return &TCP{Host: "127.0.0.1", Trace: rec} },
	}
	for name, mk := range traced {
		t.Run(name, func(t *testing.T) {
			rec := trace.NewRecorder(1 << 10)
			nw := mk(rec)
			ln, err := nw.Listen(echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			got := make(chan *wire.Msg, 1)
			conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for call := uint64(1); call <= 8; call++ {
				if err := conn.Send(&wire.Msg{Kind: wire.KindCollect, Call: call, Reg: "r"}); err != nil {
					t.Fatal(err)
				}
				select {
				case <-got:
				case <-time.After(5 * time.Second):
					t.Fatalf("echo %d: no reply", call)
				}
			}
			// The last spans land just after the reply is handled.
			seen := map[trace.Phase]bool{}
			for deadline := time.Now().Add(5 * time.Second); !reflect.DeepEqual(seen, want) && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				for _, sp := range rec.Spans() {
					if sp.Phase.Layer() == "transport" {
						seen[sp.Phase] = true
					}
				}
			}
			if !reflect.DeepEqual(seen, want) {
				t.Fatalf("traced echo recorded transport phases %v, want %v", seen, want)
			}
		})
	}
}

// TestCrashRecoverRestoresListener: every network's Listener implements
// Recoverer; after Crash → Recover the same address accepts dials and
// answers again, and Recover after Close is an error — closed is final.
func TestCrashRecoverRestoresListener(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			ln, err := nw.Listen(echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			rec, ok := ln.(Recoverer)
			if !ok {
				t.Fatalf("%T does not implement transport.Recoverer", ln)
			}

			ln.Crash()
			if _, err := nw.Dial(ln.Addr(), nil); err == nil {
				t.Fatal("dial to a crashed listener succeeded")
			}
			if err := rec.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}

			got := make(chan *wire.Msg, 4)
			conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
			if err != nil {
				t.Fatalf("redial after recover: %v", err)
			}
			defer conn.Close()
			if err := conn.Send(&wire.Msg{Kind: wire.KindPropagate, Call: 1, Reg: "r"}); err != nil {
				t.Fatalf("send after recover: %v", err)
			}
			select {
			case m := <-got:
				if m.Kind != wire.KindAck {
					t.Fatalf("bad reply after recover: %+v", m)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("recovered listener never answered")
			}

			ln.Close()
			if err := rec.Recover(); err == nil {
				t.Fatal("Recover after Close succeeded; closed must be final")
			}
		})
	}
}

// TestClosedConnRefusesEveryFrame: a closed connection refuses every frame
// with ErrClosed, on every network and from either end — never a share of
// them, as a select between "closed" and "queue has room" would. Senders
// that route around dead links (electd's thrifty first wave) go by this
// error, and an accepted frame would sit in a queue nobody drains. On the
// accepted side a UDP "connection" is the listener's socket aimed at one
// peer, so the listener's Close is what severs it; the last row is the
// window udpPeerConn.SendEncoded leaves between loading the endpoint and
// sending on it.
func TestClosedConnRefusesEveryFrame(t *testing.T) {
	type ends struct {
		send  func(frame []byte) error
		close func()
	}
	// open connects a client to a fresh listener and returns the dialed
	// conn, the Conn the server's handler was given, and the listener.
	open := func(t *testing.T, nw Network) (Conn, Conn, Listener) {
		t.Helper()
		accepted := make(chan Conn, 1)
		ln, err := nw.Listen(func(c Conn, _ *wire.Msg) { accepted <- c })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() }) //nolint:errcheck // teardown
		dialed, err := nw.Dial(ln.Addr(), func(Conn, *wire.Msg) {})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dialed.Close() }) //nolint:errcheck // teardown
		if err := dialed.Send(&wire.Msg{Kind: wire.KindCollect, Reg: "hello"}); err != nil {
			t.Fatal(err)
		}
		select {
		case c := <-accepted:
			return dialed, c, ln
		case <-time.After(5 * time.Second):
			t.Fatal("the listener never saw the first frame")
			return nil, nil, nil
		}
	}
	// side closes and sends on one end of a fresh connection.
	side := func(mk func() Network, accepted bool) func(*testing.T) ends {
		return func(t *testing.T) ends {
			c, srv, _ := open(t, mk())
			if accepted {
				c = srv
			}
			return ends{send: c.SendEncoded, close: func() { c.Close() }} //nolint:errcheck // under test
		}
	}
	tcp, loop := func() Network { return NewTCP() }, func() Network { return NewLoopback() }
	cases := map[string]func(*testing.T) ends{
		"tcp/dialed":        side(tcp, false),
		"tcp/accepted":      side(tcp, true),
		"loopback/dialed":   side(loop, false),
		"loopback/accepted": side(loop, true),
		"udp/dialed":        side(func() Network { return NewUDP() }, false),
		"udp/accepted": func(t *testing.T) ends {
			_, c, ln := open(t, NewUDP())
			return ends{send: c.SendEncoded, close: func() { ln.Close() }} //nolint:errcheck // under test
		},
		"udp/accepted-endpoint-held": func(t *testing.T) ends {
			_, c, ln := open(t, NewUDP())
			ep, to := ln.(*UDPListener).ep.Load(), c.(*udpPeerConn).to
			return ends{send: func(frame []byte) error { return ep.send(frame, to) }, close: func() { ln.Close() }} //nolint:errcheck // under test
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			e := mk(t)
			e.close()
			refused := 0
			for i := 0; i < 200; i++ {
				frame, err := wire.Append(wire.GetBuf(), &wire.Msg{Kind: wire.KindAck, Call: uint64(i)})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.send(frame); errors.Is(err, ErrClosed) {
					refused++
				} else if err != nil {
					t.Fatalf("send %d after Close: %v, want ErrClosed", i, err)
				}
			}
			if refused != 200 {
				t.Fatalf("%d of 200 sends after Close returned ErrClosed", refused)
			}
		})
	}
}

// TestCrashSeversConnectionsAcceptedDuringIt races dials against Crash: a
// connection the accept loop was still setting up when the crash took its
// snapshot of the established ones must be closed all the same. Left open,
// it is a live link to a server that drops every request, and a client that
// routes by link state (electd's first wave) waits out a tick on it.
func TestCrashSeversConnectionsAcceptedDuringIt(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) { crashDuringDials(t, mk()) })
	}
}

func crashDuringDials(t *testing.T, nw Network) {
	ln, err := nw.Listen(echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // teardown
	probe := &wire.Msg{Kind: wire.KindCollect, Reg: "probe"}
	dialed := 0
	for round := 0; round < 300; round++ {
		// Three dialers, so that a crash is likely to find the accept loop
		// with a connection in hand. (A SYN that meets the closing listener
		// is retried by the kernel a second later; the odd round waits that
		// out below.)
		const dialers = 3
		stop, done := make(chan struct{}), make(chan []Conn, dialers)
		for range dialers {
			go func() {
				var conns []Conn
				for {
					select {
					case <-stop:
						done <- conns
						return
					default:
					}
					if c, err := nw.Dial(ln.Addr(), func(Conn, *wire.Msg) {}); err == nil {
						conns = append(conns, c)
					}
				}
			}()
		}
		// Vary where in the dial loop the crash lands.
		time.Sleep(time.Duration(round%8) * 25 * time.Microsecond)
		ln.Crash()
		close(stop)
		var conns []Conn
		for range dialers {
			conns = append(conns, <-done...)
		}
		dialed += len(conns)
		for _, c := range conns {
			for deadline := time.Now().Add(2 * time.Second); c.Send(probe) == nil; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: a connection dialed while the listener crashed is still open 2 s later", round)
				}
			}
			c.Close() //nolint:errcheck // already severed
		}
		if err := ln.(Recoverer).Recover(); err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
	}
	if dialed == 0 {
		t.Fatal("no dial ever succeeded: the race was never run")
	}
}

// TestStreamIDNamesOneConnection: on a stream network, the Conn a handler
// is given carries one nonzero name per connection — for plain frames,
// handed the connection itself, and for batches, handed its reply
// coalescer alike — and two connections carry two names. A datagram
// network names nothing.
func TestStreamIDNamesOneConnection(t *testing.T) {
	nets := networks()
	nets["udp"] = func() Network { return NewUDP() }
	for name, mk := range nets {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			type seen struct {
				call uint64
				id   uint64
			}
			got := make(chan seen, 64)
			ln, err := nw.Listen(func(c Conn, m *wire.Msg) { got <- seen{m.Call, StreamID(c)} })
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			ids := map[uint64]uint64{} // first call of a connection → its name
			for first := uint64(100); first <= 200; first += 100 {
				conn, err := nw.Dial(ln.Addr(), func(Conn, *wire.Msg) {})
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				msg := func(call uint64) *wire.Msg { return &wire.Msg{Kind: wire.KindCollect, Call: call, Reg: "r"} }
				batch, err := wire.EncodeBatch([]*wire.Msg{msg(first + 1), msg(first + 2)})
				if err != nil {
					t.Fatal(err)
				}
				if err := conn.Send(msg(first)); err != nil {
					t.Fatal(err)
				}
				if err := conn.SendEncoded(batch); err != nil {
					t.Fatal(err)
				}
				for range 3 {
					select {
					case s := <-got:
						if s.call < first || s.call > first+2 {
							t.Fatalf("call %d arrived on the connection of call %d", s.call, first)
						}
						if prev, ok := ids[first]; ok && prev != s.id {
							t.Fatalf("one connection named %d and %d", prev, s.id)
						}
						ids[first] = s.id
					case <-time.After(5 * time.Second):
						t.Fatal("a message never arrived")
					}
				}
			}
			if name == "udp" {
				if ids[100] != 0 || ids[200] != 0 {
					t.Fatalf("datagram connections named %v", ids)
				}
				return
			}
			if ids[100] == 0 || ids[200] == 0 || ids[100] == ids[200] {
				t.Fatalf("stream connections named %v", ids)
			}
		})
	}
}

// TestHeldSendsLeaveInOneDrain: frames a stream connection holds stay
// queued, unwritten, while its write loop is parked; a Kick sends them all
// in one write, and a plain send after them is one write of one frame —
// the one transport_single_frame_writes_total counts.
func TestHeldSendsLeaveInOneDrain(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			nw := mk()
			got := make(chan *wire.Msg, 16)
			ln, err := nw.Listen(func(_ Conn, m *wire.Msg) { got <- m })
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			conn, err := nw.Dial(ln.Addr(), func(Conn, *wire.Msg) {})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			held, ok := conn.(HeldConn)
			if !ok {
				t.Fatalf("%T does not hold frames", conn)
			}
			q := conn.(*tcpConn).out
			for parked := false; !parked; time.Sleep(time.Millisecond) {
				q.mu.Lock()
				parked = q.idle
				q.mu.Unlock()
			}
			frame := func(call uint64) []byte {
				b, err := wire.Append(wire.GetBuf(), &wire.Msg{Kind: wire.KindCollect, Election: 1, Call: call, Reg: "r"})
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			// receive waits for want frames and then for the write that
			// carried the last of them to be counted: a pipe's reader can
			// have it before the writer's Write returns.
			receive := func(want int, since Stats) Stats {
				t.Helper()
				for i := 0; i < want; i++ {
					select {
					case <-got:
					case <-time.After(5 * time.Second):
						t.Fatalf("%d of %d frames arrived", i, want)
					}
				}
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					if s := ReadStats(); s.WriteCalls > since.WriteCalls || time.Now().After(deadline) {
						return s
					}
				}
			}

			before := ReadStats()
			const burst = 5
			for call := uint64(1); call <= burst; call++ {
				if err := held.SendHeld(frame(call)); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case m := <-got:
				t.Fatalf("held call %d arrived before the kick", m.Call)
			case <-time.After(20 * time.Millisecond):
			}
			held.Kick()
			mid := receive(burst, before)
			if w, s := mid.WriteCalls-before.WriteCalls, mid.SingleFrameWrites-before.SingleFrameWrites; w != 1 || s != 0 {
				t.Fatalf("%d held frames went out in %d writes, %d of one frame; want one write", burst, w, s)
			}
			if err := conn.SendEncoded(frame(burst + 1)); err != nil {
				t.Fatal(err)
			}
			after := receive(1, mid)
			if w, s := after.WriteCalls-mid.WriteCalls, after.SingleFrameWrites-mid.SingleFrameWrites; w != 1 || s != 1 {
				t.Fatalf("a lone frame went out in %d writes, %d counted as single-frame; want 1 and 1", w, s)
			}
		})
	}
}
