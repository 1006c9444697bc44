//go:build !race

package transport

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/wire"
)

// echoAllocs is the transport's share of the socket path's per-message
// allocation budget, the same on every network: one collect-shaped
// request to a listener and its ack back — two messages through Send, both
// write loops, both read loops and both handlers — counted across all
// goroutines in steady state. Measured 2 per round trip on TCP, on UDP and
// on Loopback (TCP's connection code over net.Pipe): the request and reply
// messages the two senders build (Send takes a pointer through an
// interface, so each escapes). Frame buffers, decoded messages and the
// register name are pooled or interned. The budget sits below 5, what the
// TCP loop made while PutBuf boxed a slice header per frame and every
// decode copied the register name, and far below 16, what the UDP loop
// made while each datagram syscall went through RawConn closures. Run
// without the race detector, which makes sync.Pool lossy.
const echoAllocs = 4

// batchDispatchAllocs: one read loop dispatching an inbound batch frame of
// 16 collect-shaped requests, the handler answering each through the Conn
// it was handed, the answers leaving as one batch frame. Measured 0 — the
// register name comes from the process-wide decode cache, the reply
// coalescer lives with the connection, messages and frame buffers are
// pooled. Before that the coalescer was made per batch and escaped each
// time, on client read loops (whose handler never replies) as on server
// ones.
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
	frame, err := appendBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	body, err := frameBody(frame)
	if err != nil {
		t.Fatal(err)
	}
	var sink sinkConn
	rc := replyCoalescer{conn: &sink, run: maxRunBytes}
	handled := 0
	h := func(c Conn, m *wire.Msg) {
		handled++
		ack, err := wire.AppendReplyFrame(wire.GetBuf(), wire.KindAck, m.Election, m.Call, 0, 0, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SendEncoded(ack) //nolint:errcheck // sinkConn never fails
		wire.RecycleMsg(m)
	}
	dispatch := func() {
		if err := dispatchGroup(&rc, h, body); err != nil {
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
	for name, nw := range map[string]Network{"loopback": NewLoopback(), "tcp": &TCP{}, "udp": &UDP{}} {
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

// retainedPerPair bounds the heap one idle dialed stream connection pair
// keeps, on TCP and on Loopback alike: its two tcpIdleBufSize read buffers
// and small change. Measured 9.5–12 KiB on both networks, after a small
// frame and after a 256 KiB one alike: the burst buffers a read loop
// borrows go back to tcpReadBufs when the burst ends. While every
// connection kept its pooled 32 KiB read buffer for life it was 68 KiB;
// with a bufio reader and writer per end and a read-side body buffer that
// kept its high-water mark it was 134 KiB, and 667 KiB once a 256 KiB
// frame had crossed.
const retainedPerPair = 16 << 10

// heapAfterGC is the live heap once garbage and the sync.Pools' contents
// (which survive one collection) are gone.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestIdleTCPConnRetainsOneReadBuffer(t *testing.T) {
	for name, nw := range map[string]Network{"tcp": &TCP{}, "loopback": NewLoopback()} {
		t.Run(name, func(t *testing.T) {
			ln, err := nw.Listen(func(c Conn, m *wire.Msg) {
				c.Send(m) //nolint:errcheck // a lost echo fails the wait below
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close() //nolint:errcheck // teardown
			const pairs = 32
			got := make(chan struct{}, pairs)
			base := heapAfterGC()
			conns := make([]Conn, pairs)
			for i := range conns {
				if conns[i], err = nw.Dial(ln.Addr(), func(Conn, *wire.Msg) { got <- struct{}{} }); err != nil {
					t.Fatal(err)
				}
				defer conns[i].Close() //nolint:errcheck // teardown
			}
			for _, payload := range []int{8, 256 << 10} {
				for i, c := range conns {
					if err := c.Send(&wire.Msg{Kind: wire.KindPropagate, Call: uint64(i), Reg: "r",
						Entries: []rt.Entry{{Reg: "r", Owner: 1, Seq: 1, Val: strings.Repeat("x", payload)}}}); err != nil {
						t.Fatal(err)
					}
				}
				for i := range conns {
					select {
					case <-got:
					case <-time.After(10 * time.Second):
						t.Fatalf("%d-byte payload: echo %d of %d never arrived", payload, i, pairs)
					}
				}
				// An echo arrives before its sender's write loop has let go of
				// the drain it wrote (a pipe write returns once the peer has
				// read it), so the pairs are idle only once those loops park;
				// a buffer an idle pair keeps never drops out.
				perPair := (heapAfterGC() - base) / pairs
				for deadline := time.Now().Add(time.Second); perPair > retainedPerPair && time.Now().Before(deadline); {
					time.Sleep(10 * time.Millisecond)
					perPair = (heapAfterGC() - base) / pairs
				}
				t.Logf("after a %d-byte payload each way: %.1f KiB retained per idle pair", payload, float64(perPair)/1024)
				if perPair > retainedPerPair {
					t.Fatalf("after a %d-byte payload each way: %d bytes retained per idle pair, budget %d", payload, perPair, retainedPerPair)
				}
			}
		})
	}
}

// hostileHeapGrowth bounds the heap a listener may take for eight
// connections that each sent only a length prefix claiming MaxFrame. Read
// buffers grow with the bytes received, and a few prefix bytes sit in the
// idle buffer, so the eight cost their eight tcpIdleBufSize read buffers
// (32 KiB together; 256 KiB while each connection kept a pooled 32 KiB
// buffer for life); sizing a buffer from the prefix cost 128 MiB.
const hostileHeapGrowth = 8 << 20

func TestTCPLengthPrefixSizesNoBuffer(t *testing.T) {
	nw := &TCP{}
	ln, err := nw.Listen(echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	l := ln.(*TCPListener)
	base := heapAfterGC()
	prefix := binary.AppendUvarint(nil, wire.MaxFrame)
	raws := make([]net.Conn, 8)
	for i := range raws {
		if raws[i], err = net.Dial("tcp", ln.Addr()); err != nil {
			t.Fatal(err)
		}
		defer raws[i].Close() //nolint:errcheck // teardown; closed below on success
		if _, err := raws[i].Write(prefix); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan *wire.Msg, 1)
	conn, err := nw.Dial(ln.Addr(), func(_ Conn, m *wire.Msg) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // teardown
	if err := conn.Send(&wire.Msg{Kind: wire.KindPropagate, Call: 1, Reg: "r"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("a well-behaved client got no echo beside the hostile prefixes")
	}
	waitConns(t, l, len(raws)+1)
	// The read loops take the prefixes in their own time; an allocation
	// sized by one shows within a few scheduler rounds.
	var grown int64
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if grown = heapAfterGC() - base; grown >= hostileHeapGrowth {
			t.Fatalf("%d MaxFrame prefixes (%d bytes sent in all) grew the heap by %.1f MiB, budget %d MiB",
				len(raws), len(raws)*len(prefix), float64(grown)/(1<<20), hostileHeapGrowth>>20)
		}
	}
	t.Logf("%d MaxFrame prefixes and one echo grew the heap by %.1f KiB", len(raws), float64(grown)/1024)
	for _, c := range raws {
		c.Close() //nolint:errcheck // under test: ends the server's read loop
	}
	waitConns(t, l, 1)
	closed := make(chan error, 1)
	go func() { closed <- ln.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the listener's Close did not return")
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

// TestReplyBatchesFitReadBuffer: a batch of 64 collects answered with
// 1 KiB views — 66 KiB of replies — comes back from a listener in outer
// frames that each fit the client's tcpBufSize read buffer, and a client
// read loop fed those frames takes no fresh buffer for them. One reply batch
// of all 64 took a 64 KiB and then a 128 KiB buffer per round.
func TestReplyBatchesFitReadBuffer(t *testing.T) {
	const reg, calls, rounds = "leaderelect/round", 64, 16
	view, err := wire.Append(nil, &wire.Msg{Kind: wire.KindView, Call: 1, From: 2, Reg: reg,
		Entries: []rt.Entry{{Reg: reg, Owner: 1, Seq: 1, Val: strings.Repeat("v", 1000)}}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := (&TCP{}).Listen(func(c Conn, m *wire.Msg) {
		c.SendEncoded(append(wire.GetBuf(), view...)) //nolint:errcheck // a lost reply fails the read below
		wire.RecycleMsg(m)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // teardown
	msgs := make([]*wire.Msg, calls)
	for i := range msgs {
		msgs[i] = &wire.Msg{Kind: wire.KindCollect, Call: uint64(i + 1), From: 3, Reg: reg}
	}
	batch, err := appendBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}

	// The listener's answer, read off a raw socket and split into its outer
	// frames.
	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close() //nolint:errcheck // teardown
	if _, err := raw.Write(batch); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a stall fails the read
	var answer []byte
	frames, replies := 0, 0
	for buf, split := make([]byte, 4096), 0; replies < calls; {
		n, err := raw.Read(buf)
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", replies, calls, err)
		}
		answer = append(answer, buf[:n]...)
		for {
			body, size, err := wire.SplitFrame(answer[split:])
			if err != nil {
				t.Fatal(err)
			}
			if size == 0 {
				break
			}
			if size > tcpBufSize {
				t.Fatalf("a %d-byte outer frame outgrows the %d-byte read buffer", size, tcpBufSize)
			}
			frames++
			if wire.Kind(body[0]) != wire.KindBatch {
				replies++
			} else if err := wire.ForEachFrame(body, func([]byte) error { replies++; return nil }); err != nil {
				t.Fatal(err)
			}
			split += size
		}
	}
	t.Logf("%d replies of %d bytes came back in %d outer frames, %d bytes", replies, len(view), frames, len(answer))

	// A client read loop fed that answer, round after round, by a raw
	// server: the only allocations in the process are the client's.
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close() //nolint:errcheck // teardown
	go func() {
		c, err := fake.Accept()
		if err != nil {
			return
		}
		defer c.Close() //nolint:errcheck // teardown
		buf := make([]byte, len(batch))
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(answer); err != nil {
				return
			}
		}
	}()
	got := make(chan struct{}, calls)
	conn, err := (&TCP{}).Dial(fake.Addr().String(), func(_ Conn, m *wire.Msg) {
		wire.PutMsg(m) // a memoized view
		got <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // teardown
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	round := func() {
		if err := conn.SendEncoded(append(wire.GetBuf(), batch...)); err != nil {
			t.Fatal(err)
		}
		timeout.Reset(10 * time.Second)
		for i := 0; i < calls; i++ {
			select {
			case <-got:
			case <-timeout.C:
				t.Fatalf("reply %d of %d never arrived", i, calls)
			}
		}
	}
	round() // the first round fills the pools and the decode cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("the client allocated %d bytes per round of %d collects", perRound, calls)
	if perRound >= tcpBufSize {
		t.Fatalf("a round of %d 1 KiB views allocated %d bytes: the read buffer grew", calls, perRound)
	}
}
