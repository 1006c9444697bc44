//go:build !race

package transport

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// echoAllocs is the transport's share of the socket path's per-message
// allocation budget, the same on both socket networks: one collect-shaped
// request to a listener and its ack back — two messages through Send, both
// write loops, both read loops and both handlers — counted across all
// goroutines in steady state. Measured 2 per round trip on TCP and on UDP:
// the request and reply messages the two senders build (Send takes a
// pointer through an interface, so each escapes). Frame buffers, decoded
// messages and the register name are pooled or interned. The budget sits
// below 5, what the TCP loop made while PutBuf boxed a slice header per
// frame and every decode copied the register name, and far below 16, what
// the UDP loop made while each datagram syscall went through RawConn
// closures. Run without the race detector, which makes sync.Pool lossy.
const echoAllocs = 4

// batchDispatchAllocs: one read loop dispatching an inbound batch frame of
// 16 collect-shaped requests, the handler answering each through the Conn
// it was handed, the answers leaving as one batch frame. Measured 0 — the
// stream decoder lives in the read loop and the reply coalescer with the
// connection, messages and frame buffers are pooled. Before that the
// coalescer was made per batch and escaped each time, on client read loops
// (whose handler never replies) as on server ones.
const batchDispatchAllocs = 0

// sinkConn stands for a connection's write queue: it counts and recycles
// the frames it is handed.
type sinkConn struct{ frames int }

func (s *sinkConn) Send(*wire.Msg) error { return nil }
func (s *sinkConn) SendEncoded(frame []byte) error {
	s.frames++
	wire.PutBuf(frame)
	return nil
}
func (s *sinkConn) Close() error { return nil }

func TestBatchDispatchAllocBudget(t *testing.T) {
	msgs := make([]*wire.Msg, 16)
	for i := range msgs {
		msgs[i] = &wire.Msg{Kind: wire.KindCollect, Call: uint64(i + 1), From: 3, Reg: "leaderelect/sift/3/status"}
	}
	frame, err := wire.EncodeBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	body, err := frameBody(frame)
	if err != nil {
		t.Fatal(err)
	}
	var dec wire.Decoder
	var sink sinkConn
	rc := replyCoalescer{conn: &sink}
	handled := 0
	h := func(c Conn, m *wire.Msg) {
		handled++
		ack, err := wire.AppendReplyFrame(wire.GetBuf(), wire.KindAck, m.Election, m.Call, 0, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SendEncoded(ack) //nolint:errcheck // sinkConn never fails
		wire.RecycleMsg(m)
	}
	dispatch := func() {
		if err := dispatchGroup(&rc, h, nil, &dec, body); err != nil {
			t.Fatal(err)
		}
	}
	dispatch() // the first group interns the register name
	if handled != 16 || sink.frames != 1 {
		t.Fatalf("one 16-message batch: %d messages handled, %d reply frames (want 16, 1)", handled, sink.frames)
	}
	if got := testing.AllocsPerRun(1000, dispatch); got > batchDispatchAllocs {
		t.Fatalf("dispatch of a 16-message batch: %v allocs, budget %d", got, batchDispatchAllocs)
	}
}

func TestEchoAllocBudget(t *testing.T) {
	for name, nw := range map[string]Network{"tcp": NewTCP(), "udp": NewUDP()} {
		t.Run(name, func(t *testing.T) {
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
			if got := testing.AllocsPerRun(2000, roundTrip); got > echoAllocs {
				t.Fatalf("%s echo round trip: %v allocs, budget %d", name, got, echoAllocs)
			}
		})
	}
}

// TestSendQueueCycleAllocs: a put and the take that drains it allocate
// nothing once the queue's two backing arrays have grown — the consumer
// hands each batch back as the next backing array.
func TestSendQueueCycleAllocs(t *testing.T) {
	q := newSendQueue(func([]byte) {})
	frame := make([]byte, 8)
	var batch [][]byte
	cycle := func() {
		for i := 0; i < 16; i++ {
			q.put(frame) //nolint:errcheck // open queue with room
		}
		batch, _ = q.take(batch)
	}
	cycle()
	cycle() // both arrays have held a batch now
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Fatalf("steady-state put/take cycle: %v allocs, want 0", got)
	}
}
