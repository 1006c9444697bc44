package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/expt"
	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The ladder measures each layer from outside: every rung times or counts
// calls into one package's exported functions, with nothing of the layers
// above it in the way. It runs once, after the workloads, with tracing off.

// ladder carries one ladder run's parameters and collects its metrics.
type ladder struct {
	seed int64
	// scale shrinks the rungs' repeat counts with the run length (1 from
	// 10 s up); the sim rungs ignore it — their counts are exact.
	scale float64
	out   map[string]float64
}

// reps scales a rung's repeat count, never below a floor that keeps its
// median meaningful.
func (l *ladder) reps(n int) int {
	return max(n/10, int(float64(n)*l.scale))
}

func runLadder(seed int64, scale float64, spans *spanLog) (map[string]float64, error) {
	l := &ladder{seed: seed, scale: scale, out: map[string]float64{}}
	parent := spans.begin("ladder", 0)
	defer spans.end(parent)
	rungs := []struct {
		name string
		fn   func() error
	}{
		{"expt.Run", l.simCounts},
		{"live.Elect", l.liveShape},
		{"live.SystemPool", l.poolCycle},
		{"electd.Client", l.clientRPC},
		{"electd.Server.Handle", l.serverHandle},
		{"electd udp/tcp msgs", l.udpOverhead},
		{"wire.Append/Decode", l.wireCodec},
		{"transport echo", l.transportEcho},
		{"transport fanout", l.transportFanout},
	}
	for _, r := range rungs {
		id := spans.begin("ladder:"+r.name, parent)
		err := r.fn()
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
	}
	return l.out, nil
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// batchNs times batches of fn calls and returns the median batch's time per
// call in nanoseconds — calls this short are below the clock's resolution
// one at a time.
func batchNs(batches, per int, fn func(i int)) float64 {
	times := make([]float64, batches)
	i := 0
	for b := range times {
		start := time.Now()
		for j := 0; j < per; j++ {
			fn(i)
			i++
		}
		times[b] = float64(time.Since(start).Nanoseconds()) / float64(per)
	}
	return percentile(times, 0.50)
}

// simCounts runs the paper-side algorithms on the sim kernel under the
// seeded fair scheduler. The counts are exact and repeat bit-for-bit; they
// guard the paper's numbers while live code changes underneath.
func (l *ladder) simCounts() error {
	const seeds = 16
	run := func(algo expt.Algorithm, n int) (calls, msgs float64, err error) {
		for s := int64(0); s < seeds; s++ {
			r := expt.Run(expt.Config{N: n, Seed: s, Algorithm: algo, Schedule: expt.SchedFair})
			if r.Err != nil {
				return 0, 0, fmt.Errorf("%s seed %d: %w", algo, s, r.Err)
			}
			if algo == expt.AlgoRenaming {
				taken := map[int]bool{}
				for _, name := range r.Names {
					taken[name] = true
				}
				if len(r.Names) != n || len(taken) != n {
					return 0, 0, fmt.Errorf("renaming seed %d: %d names, %d distinct, want %d", s, len(r.Names), len(taken), n)
				}
			} else if w := r.Winners(); w != 1 {
				return 0, 0, fmt.Errorf("%s seed %d: %d winners", algo, s, w)
			}
			calls += float64(r.Stats.MaxCommunicateCalls())
			msgs += float64(r.Stats.MessagesSent)
		}
		return calls / seeds, msgs / seeds, nil
	}
	calls, msgs, err := run(expt.AlgoPoisonPill, 64)
	if err != nil {
		return err
	}
	l.out["core.sim_comm_calls.poisonpill"], l.out["core.sim_msgs.poisonpill"] = calls, msgs
	if calls, _, err = run(expt.AlgoTournament, 64); err != nil {
		return err
	}
	l.out["baseline.sim_comm_calls.tournament"] = calls
	if calls, _, err = run(expt.AlgoRenaming, 32); err != nil {
		return err
	}
	l.out["renaming.sim_comm_calls"] = calls
	return nil
}

// chanStats summarises a batch of in-process elections.
type chanStats struct {
	p50ms, rounds, calls, msgs, allocs float64
}

// chanElections runs count elections of algo on the chan substrate, n = 32
// with k participants, one at a time on a shared system pool.
func (l *ladder) chanElections(algo live.Algorithm, k, count int) (chanStats, error) {
	const n = 32
	spool := live.NewSystemPool(n, true)
	defer spool.Close()
	var st chanStats
	lats := make([]float64, 0, count)
	before := mallocs()
	for i := 0; i < count; i++ {
		start := time.Now()
		res, err := live.Elect(live.Config{N: n, K: k, Seed: electionSeed(l.seed, i), Algorithm: algo, Pool: spool})
		lat := time.Since(start)
		if err == nil {
			err = checkValid(res, k)
		}
		if err != nil {
			return st, fmt.Errorf("%s k=%d election %d: %w", algo, k, i, err)
		}
		lats = append(lats, ms(lat))
		st.rounds += float64(res.Rounds)
		st.calls += float64(res.Time)
		st.msgs += float64(res.Messages)
	}
	c := float64(count)
	st.allocs = float64(mallocs()-before) / c
	st.p50ms, st.rounds, st.calls, st.msgs = percentile(lats, 0.50), st.rounds/c, st.calls/c, st.msgs/c
	return st, nil
}

// liveShape holds the live algorithms to the paper's shape: adaptive
// O(log* k) rounds and O(kn) messages at k = 4 of n = 32, and fewer
// communicate calls than the tournament at k = n = 32. The full-house
// PoisonPill batch also prices the live layer per call and per message.
func (l *ladder) liveShape() error {
	const n, k = 32, 4
	few, err := l.chanElections(live.AlgoPoisonPill, k, l.reps(300))
	if err != nil {
		return err
	}
	l.out["core.rounds_ratio.k4"] = few.rounds / float64(expt.LogStar(k)+2)
	l.out["core.msgs_ratio.k4"] = few.msgs / (k * n)
	pill, err := l.chanElections(live.AlgoPoisonPill, n, l.reps(200))
	if err != nil {
		return err
	}
	tourn, err := l.chanElections(live.AlgoTournament, n, l.reps(200))
	if err != nil {
		return err
	}
	l.out["core.tournament_calls_ratio"] = ratio(tourn.calls, pill.calls)
	l.out["live.us_per_comm_call"] = ratio(pill.p50ms*1000, pill.calls)
	l.out["live.allocs_per_msg"] = ratio(pill.allocs, pill.msgs)
	return nil
}

// poolCycle times checking a 32-processor system out of the pool (a full
// in-place reset) and parking it again.
func (l *ladder) poolCycle() error {
	spool := live.NewSystemPool(32, true)
	defer spool.Close()
	spool.Put(spool.Get(l.seed, nil))
	l.out["live.pool_cycle_ns"] = batchNs(l.reps(20), 50, func(i int) {
		spool.Put(spool.Get(l.seed+int64(i), nil))
	})
	return nil
}

// ladderStatus is the register value the electd, wire and transport rungs
// carry: a sifting-round status with a short observed list, as the
// heterogeneous PoisonPill propagates.
var ladderStatus = core.Status{Stat: core.HighPri, List: []rt.ProcID{1, 5, 9}}

// clientRPC times one Client.Propagate and one Client.Collect to quorum
// against an idle 32-server cluster whose register array holds all 32 cells.
func (l *ladder) clientRPC() error {
	const n, reg = 32, "ladder"
	for _, name := range []string{transport.SpecTCP, transport.SpecUDP} {
		cl, err := electd.NewClusterSpec(transport.Spec{Name: name}, n, electd.ClusterOptions{})
		if err != nil {
			return err
		}
		election := cl.NextElectionID()
		clients := make([]*electd.Client, n)
		for i := range clients {
			clients[i] = cl.NewComm(electd.NewParticipant(rt.ProcID(i), n, l.seed+int64(i)), election, nil)
			clients[i].Propagate(reg, ladderStatus)
		}
		c := clients[0]
		calls := l.reps(2000)
		prop, coll := make([]float64, calls), make([]float64, calls)
		before := mallocs()
		for i := range prop {
			start := time.Now()
			c.Propagate(reg, ladderStatus)
			prop[i] = us(time.Since(start))
		}
		for i := range coll {
			start := time.Now()
			views := c.Collect(reg)
			coll[i] = us(time.Since(start))
			if len(views) < c.QuorumSize() || len(views[0].Entries) != n {
				cl.Close() //nolint:errcheck // already failing
				return fmt.Errorf("%s collect returned %d views, first with %d entries", name, len(views), len(views[0].Entries))
			}
		}
		l.out["electd.rpc_allocs."+name] = float64(mallocs()-before) / float64(2*calls)
		l.out["electd.propagate_us."+name] = percentile(prop, 0.50)
		l.out["electd.collect_us."+name] = percentile(coll, 0.50)
		if err := cl.Close(); err != nil {
			return err
		}
	}
	return nil
}

// sinkConn is the stub transport.Conn the server rung replies into: it
// owns the encoded frame, as a real connection would, and recycles it.
type sinkConn struct{}

func (sinkConn) Send(*wire.Msg) error           { return nil }
func (sinkConn) SendEncoded(frame []byte) error { wire.PutBuf(frame); return nil }
func (sinkConn) Close() error                   { return nil }

// serverHandle calls Server.Handle directly: the server's merge and
// snapshot work with no socket under it. Handle owns the message, so each
// call draws a fresh one from wire's pool, as a read loop does.
func (l *ladder) serverHandle() error {
	const n, reg, election = 32, "ladder", 1
	srv := electd.NewServer(0)
	defer srv.Close() //nolint:errcheck // always nil
	request := func(kind wire.Kind, i int) *wire.Msg {
		m := wire.GetMsg()
		m.Kind, m.Election, m.Call, m.From, m.Reg = kind, election, uint64(i), rt.ProcID(i%n), reg
		return m
	}
	l.out["electd.handle_ns.propagate"] = batchNs(l.reps(100), 1000, func(i int) {
		m := request(wire.KindPropagate, i)
		m.Entries = append(m.Entries[:0], rt.Entry{Reg: reg, Owner: m.From, Seq: uint64(i/n + 1), Val: ladderStatus})
		srv.Handle(sinkConn{}, m)
	})
	l.out["electd.handle_ns.collect"] = batchNs(l.reps(100), 1000, func(i int) {
		srv.Handle(sinkConn{}, request(wire.KindCollect, i))
	})
	if got := srv.Served(); got == 0 {
		return fmt.Errorf("server answered no request")
	}
	return nil
}

// udpOverhead compares messages per election on the two concurrent socket
// workloads: what UDP's retransmit layer adds over the stream's none.
func (l *ladder) udpOverhead() error {
	msgs := map[string]float64{}
	for _, name := range []string{"load-tcp-n16-c4", "load-udp-n16-c4"} {
		w, _ := findWorkload(name)
		e, err := setUp(w, nil)
		if err != nil {
			return err
		}
		length := time.Duration(l.scale * float64(time.Second))
		m, err := e.measure(l.seed, length, nil, 0)
		e.close()
		if err != nil {
			return err
		}
		if failed, first := m.failed(); failed > 0 {
			return fmt.Errorf("%s: %d elections failed: %v", name, failed, first)
		}
		t := m.sums()
		msgs[name] = ratio(t.msgs, t.valid)
	}
	l.out["electd.udp_msg_overhead"] = ratio(msgs["load-udp-n16-c4"], msgs["load-tcp-n16-c4"]) - 1
	return nil
}

// wireCodec times Append and Decode on the two frames that dominate an
// election's traffic: a one-entry propagate and a 32-entry collect reply.
func (l *ladder) wireCodec() error {
	const reg = "ladder"
	view := &wire.Msg{Kind: wire.KindView, Election: 7, Call: 1 << 20, From: 3, Reg: reg}
	for i := 0; i < 32; i++ {
		view.Entries = append(view.Entries, rt.Entry{Reg: reg, Owner: rt.ProcID(i), Seq: uint64(i + 1), Val: ladderStatus})
	}
	frames := map[string]*wire.Msg{
		"propagate": {
			Kind: wire.KindPropagate, Election: 7, Call: 1 << 20, From: 3, Reg: reg,
			Entries: []rt.Entry{{Reg: reg, Owner: 3, Seq: 9, Val: ladderStatus}},
		},
		"collect_reply32": view,
	}
	for name, m := range frames {
		frame, err := wire.Append(nil, m)
		if err != nil {
			return err
		}
		body := frame[wire.PrefixSize(m.WireSize()):]
		buf := make([]byte, 0, len(frame))
		l.out["wire.append_ns."+name] = batchNs(l.reps(100), 1000, func(int) {
			buf, _ = wire.Append(buf[:0], m) // encoded once above without error
		})
		var failed error
		decode := func(int) {
			d, err := wire.Decode(body)
			if err != nil {
				failed = err
				return
			}
			wire.RecycleMsg(d)
		}
		l.out["wire.decode_ns."+name] = batchNs(l.reps(100), 1000, decode)
		if name == "collect_reply32" {
			const decodes = 1000
			before := mallocs()
			for i := 0; i < decodes; i++ {
				decode(i)
			}
			l.out["wire.allocs_per_decode"] = float64(mallocs()-before) / decodes
		}
		if failed != nil {
			return failed
		}
	}
	return nil
}

// echo answers every inbound frame with an ack carrying the request's call
// number — the least a server can do — and is the listen side of both
// transport rungs.
func echo(c transport.Conn, m *wire.Msg) {
	c.Send(&wire.Msg{Kind: wire.KindAck, Call: m.Call}) //nolint:errcheck // a lost ack surfaces as the rung's timeout
	wire.RecycleMsg(m)
}

// echoTimeout bounds the wait for a reply: the raw transports have no
// retransmit layer, so a lost datagram would otherwise hang the rung.
const echoTimeout = 2 * time.Second

func network(name string) (transport.Network, error) {
	if name == "loopback" {
		return transport.NewLoopback(), nil
	}
	return transport.Spec{Name: name}.Network()
}

// transportEcho times one frame to one peer and its reply back, through
// Listen, Dial, Send and the two handlers, on each substrate.
func (l *ladder) transportEcho() error {
	for _, name := range []string{"loopback", transport.SpecTCP, transport.SpecUDP} {
		nw, err := network(name)
		if err != nil {
			return err
		}
		ln, err := nw.Listen(echo)
		if err != nil {
			return err
		}
		got := make(chan uint64, 1)
		conn, err := nw.Dial(ln.Addr(), func(_ transport.Conn, m *wire.Msg) {
			got <- m.Call
			wire.RecycleMsg(m)
		})
		if err != nil {
			ln.Close() //nolint:errcheck // already failing
			return err
		}
		roundTrip := func(call uint64) error {
			if err := conn.Send(&wire.Msg{Kind: wire.KindCollect, Call: call, Reg: "ladder"}); err != nil {
				return err
			}
			select {
			case <-got:
				return nil
			case <-time.After(echoTimeout):
				return fmt.Errorf("%s echo %d: no reply in %v", name, call, echoTimeout)
			}
		}
		count := l.reps(2000)
		rtts := make([]float64, count)
		err = roundTrip(0) // first frame pays connection set-up
		before := mallocs()
		for i := 0; i < count && err == nil; i++ {
			start := time.Now()
			err = roundTrip(uint64(i + 1))
			rtts[i] = us(time.Since(start))
		}
		allocs := float64(mallocs()-before) / float64(count)
		conn.Close() //nolint:errcheck // teardown
		ln.Close()   //nolint:errcheck // teardown
		if err != nil {
			return err
		}
		l.out["transport.rtt_us."+name] = percentile(rtts, 0.50)
		if name != "loopback" {
			l.out["transport.allocs_per_msg."+name] = allocs
		}
	}
	return nil
}

// wave is one fanout broadcast: replies count against the wave they answer,
// so stragglers of an earlier wave never reach a later one's quorum.
type wave struct {
	call    uint64
	replies atomic.Int32
	quorum  chan struct{}
}

// transportFanout sends one frame to each of 32 listeners and stops at the
// 17th reply: the quorum-shaped wake-up with no electd above it.
func (l *ladder) transportFanout() error {
	const n, quorum = 32, 17
	for _, name := range []string{transport.SpecTCP, transport.SpecUDP} {
		nw, err := network(name)
		if err != nil {
			return err
		}
		var current atomic.Pointer[wave]
		onReply := func(_ transport.Conn, m *wire.Msg) {
			if w := current.Load(); w != nil && w.call == m.Call && w.replies.Add(1) == quorum {
				close(w.quorum)
			}
			wire.RecycleMsg(m)
		}
		var listeners []transport.Listener
		var conns []transport.Conn
		closeAll := func() {
			for _, c := range conns {
				c.Close() //nolint:errcheck // teardown
			}
			for _, ln := range listeners {
				ln.Close() //nolint:errcheck // teardown
			}
		}
		for i := 0; i < n; i++ {
			ln, err := nw.Listen(echo)
			if err != nil {
				closeAll()
				return err
			}
			listeners = append(listeners, ln)
			c, err := nw.Dial(ln.Addr(), onReply)
			if err != nil {
				closeAll()
				return err
			}
			conns = append(conns, c)
		}
		count := l.reps(1000)
		times := make([]float64, 0, count)
		for i := 0; i <= count; i++ {
			w := &wave{call: uint64(i + 1), quorum: make(chan struct{})}
			current.Store(w)
			req := &wire.Msg{Kind: wire.KindCollect, Call: w.call, Reg: "ladder"}
			start := time.Now()
			for _, c := range conns {
				c.Send(req) //nolint:errcheck // a dead link surfaces as the timeout below
			}
			select {
			case <-w.quorum:
			case <-time.After(echoTimeout):
				closeAll()
				return fmt.Errorf("%s fanout %d: %d of %d replies in %v", name, i, w.replies.Load(), quorum, echoTimeout)
			}
			if i > 0 { // the first wave pays connection set-up
				times = append(times, us(time.Since(start)))
			}
		}
		closeAll()
		l.out["transport.fanout32_us."+name] = percentile(times, 0.50)
	}
	return nil
}
