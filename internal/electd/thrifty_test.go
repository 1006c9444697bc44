package electd

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The thrifty quorum call: a communicate call's first wave asks
// quorum+thriftySlack servers on a ring walk from the election's offset,
// and only a tick without a quorum sends it to the rest (rt.Schedule, whose
// own tests hold the walk and the tick; these hold what a Client does with
// it). Every count below is derived from that arithmetic at n=16: quorum 9,
// first wave 11, 5 servers never asked.

const (
	thriftyN     = 16
	thriftySlack = rt.ThriftySlack
	widenAfter   = rt.WidenAfter
)

// firstWave returns the servers election's first wave asks on a healthy
// n-server pool, in ring order, and the ones it leaves out.
func firstWave(election uint64, n int) (in, out []int) {
	want := n/2 + 1 + thriftySlack
	for i, j := 0, firstWaveStart(election, n); i < n; i, j = i+1, (j+1)%n {
		if i < want {
			in = append(in, j)
		} else {
			out = append(out, j)
		}
	}
	return in, out
}

// served polls until the cluster's servers have answered total requests
// between them — requests outlive the quorum that completed their call —
// and returns the per-server counts. Exceeding total fails at once.
func served(t *testing.T, cl *Cluster, total int64) []int64 {
	t.Helper()
	per := make([]int64, cl.N())
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		sum := int64(0)
		for j := range per {
			per[j] = cl.Server(rt.ProcID(j)).Served()
			sum += per[j]
		}
		if sum == total {
			return per
		}
		if sum > total || time.Now().After(deadline) {
			t.Fatalf("servers answered %d requests %v, want %d", sum, per, total)
		}
	}
}

func newThriftyCluster(t *testing.T, nw transport.Network, n int) *Cluster {
	t.Helper()
	cl, err := NewClusterWith(nw, n, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() }) //nolint:errcheck // teardown
	return cl
}

// TestThriftyFirstWave: a healthy call sends exactly quorum+slack requests,
// to the ring segment its election ID selects, and the servers outside it
// serve nothing for that election — not even an instance.
func TestThriftyFirstWave(t *testing.T) {
	const election = 5
	cl := newThriftyCluster(t, transport.NewLoopback(), thriftyN)
	in, out := firstWave(election, thriftyN)
	want := int64(len(in)) // 11

	c := cl.NewComm(NewParticipant(0, thriftyN, 1), election, nil)
	c.Propagate("r", 7)
	views := c.Collect("r")
	if len(views) != c.QuorumSize() {
		t.Fatalf("collect returned %d views, want the quorum %d", len(views), c.QuorumSize())
	}
	per := served(t, cl, 2*want)
	for _, j := range in {
		if per[j] != 2 {
			t.Errorf("server %d inside the first wave served %d requests, want 2", j, per[j])
		}
	}
	for _, j := range out {
		if per[j] != 0 || cl.Server(rt.ProcID(j)).Elections() != 0 {
			t.Errorf("server %d outside the first wave served %d requests and hosts %d instances, want none",
				j, per[j], cl.Server(rt.ProcID(j)).Elections())
		}
	}
	// Messages counts requests sent plus replies routed: at least a quorum
	// of replies per call, at most one per request.
	if got, lo, hi := c.Messages(), 2*(want+int64(c.QuorumSize())), 4*want; got < lo || got > hi {
		t.Errorf("client counted %d messages, want %d requests plus %d–%d replies", got, 2*want, lo-2*want, hi-2*want)
	}
	if c.sched.Wide() || cl.Pool().widened.Load() != 0 {
		t.Errorf("a healthy call widened (client wide=%v, pool widened=%d)", c.sched.Wide(), cl.Pool().widened.Load())
	}
}

// TestThriftyOffsetsFollowElectionID: two elections ask different ring
// segments, so concurrent elections spread over all n servers; two
// participants of one election ask the same one.
func TestThriftyOffsetsFollowElectionID(t *testing.T) {
	if a, b := firstWaveStart(1, thriftyN), firstWaveStart(2, thriftyN); a == b {
		t.Fatalf("elections 1 and 2 both start at server %d", a)
	}
	cl := newThriftyCluster(t, transport.NewLoopback(), thriftyN)
	before, total := make([]int64, thriftyN), int64(0)
	// askedBy has one participant propagate once and returns the servers
	// that served the request.
	askedBy := func(election uint64, proc rt.ProcID) []int {
		t.Helper()
		cl.NewComm(NewParticipant(proc, thriftyN, 1), election, nil).Propagate("r", 1)
		total += thriftyN/2 + 1 + thriftySlack
		var asked []int
		after := served(t, cl, total)
		for j := range after {
			if after[j] > before[j] {
				asked = append(asked, j)
			}
		}
		before = after
		return asked
	}
	first, same, other := askedBy(1, 0), askedBy(1, 1), askedBy(2, 0)
	if !slices.Equal(first, same) {
		t.Errorf("participants 0 and 1 of election 1 asked %v and %v, want one set per election", first, same)
	}
	if slices.Equal(first, other) {
		t.Errorf("elections 1 and 2 both asked %v", first)
	}
}

// TestThriftyWidensOnceThenStaysWide: with slack+1 servers of the set
// silenced (their replies die on the link) the first wave can collect only
// quorum−1 answers. The call must complete after exactly one widen — which
// asks the silenced and the never-asked servers, not the ones that already
// answered — still on distinct senders, and the client's next call must go
// to all n at once.
func TestThriftyWidensOnceThenStaysWide(t *testing.T) {
	const election = 9
	cl := newThriftyCluster(t, transport.NewLoopback(), thriftyN)
	pl := cl.Pool()
	in, out := firstWave(election, thriftyN)
	silenced := in[:thriftySlack+1]
	answering := in[thriftySlack+1:] // 8 = quorum − 1

	c := cl.NewComm(NewParticipant(0, thriftyN, 1), election, &fault.Profile{
		ReplyDrop: func(server int) bool { return slices.Contains(silenced, server) },
	})
	start := time.Now()
	views := c.Collect("r")
	if took := time.Since(start); took < widenAfter {
		t.Errorf("call completed in %v, before the widen tick (%v): something other than the widen answered it", took, widenAfter)
	}
	if got := pl.widened.Load(); got != 1 {
		t.Fatalf("pool counted %d widened calls, want 1", got)
	}
	if got := pl.resent.Load(); got != 0 {
		t.Errorf("pool counted %d retransmits on a reliable transport, want 0", got)
	}
	if !c.sched.Wide() {
		t.Error("client did not stay wide after widening")
	}
	from := map[rt.ProcID]bool{}
	for _, v := range views {
		if from[v.From] || slices.Contains(silenced, int(v.From)) {
			t.Errorf("view from server %d: a duplicate sender or a silenced one", v.From)
		}
		from[v.From] = true
	}
	if len(views) != c.QuorumSize() {
		t.Fatalf("collect returned %d views, want %d", len(views), c.QuorumSize())
	}
	// First wave 11; the widen asks the 3 silenced and the 5 never asked,
	// and skips the 8 that answered.
	per := served(t, cl, int64(len(in)+len(silenced)+len(out)))
	for _, j := range silenced {
		if per[j] != 2 {
			t.Errorf("silenced server %d served %d requests, want 2 (first wave + widen)", j, per[j])
		}
	}
	for _, j := range answering {
		if per[j] != 1 {
			t.Errorf("server %d answered the first wave yet served %d requests, want 1", j, per[j])
		}
	}
	for _, j := range out {
		if per[j] != 1 {
			t.Errorf("server %d outside the first wave served %d requests, want 1 (the widen)", j, per[j])
		}
	}

	// The next call: all 16 at once, no tick.
	start = time.Now()
	c.Propagate("r", 1)
	if took := time.Since(start); took >= widenAfter {
		t.Errorf("the call after a widen took %v — it waited for a tick instead of going wide", took)
	}
	served(t, cl, int64(len(in)+len(silenced)+len(out)+thriftyN))
	if got := pl.widened.Load(); got != 1 {
		t.Errorf("pool counted %d widened calls after a wide call, want still 1", got)
	}
}

// TestThriftySkipsDeadLinks: undialed and severed links inside the set are
// passed over at selection time and the wave extends along the ring, so
// slack+1 dead servers cost no tick — without the skip the wave would
// reach only quorum−1 live servers and every call would wait to widen.
func TestThriftySkipsDeadLinks(t *testing.T) {
	const election = 3
	in, out := firstWave(election, thriftyN)
	dead := in[:thriftySlack+1]
	check := func(t *testing.T, cl *Cluster) {
		t.Helper()
		c := cl.NewComm(NewParticipant(0, thriftyN, 1), election, nil)
		start := time.Now()
		c.Propagate("r", 1)
		if got := len(c.Collect("r")); got != c.QuorumSize() {
			t.Fatalf("collect returned %d views, want %d", got, c.QuorumSize())
		}
		if took := time.Since(start); took >= widenAfter {
			t.Errorf("two calls took %v: a dead link inside the set cost a tick", took)
		}
		if got := cl.Pool().widened.Load(); got != 0 {
			t.Errorf("pool counted %d widened calls, want 0", got)
		}
		// The wave still counts quorum+slack requests: the live rest of
		// the set plus the next slack+1 servers along the ring.
		asked := append(slices.Clone(in[len(dead):]), out[:len(dead)]...)
		per := served(t, cl, int64(2*len(asked)))
		for _, j := range asked {
			if per[j] != 2 {
				t.Errorf("server %d served %d requests, want 2", j, per[j])
			}
		}
		if got, max := c.Messages(), int64(4*len(asked)); got > max {
			t.Errorf("client counted %d messages, want at most %d: requests to dead links are not sent", got, max)
		}
	}
	t.Run("undialed", func(t *testing.T) {
		cl := newThriftyCluster(t, transport.NewLoopback(), thriftyN)
		for _, j := range dead {
			cl.Pool().links[j].Swap(nil).conn.Close() //nolint:errcheck // teardown
		}
		check(t, cl)
	})
	t.Run("severed", func(t *testing.T) {
		cl := newThriftyCluster(t, &transport.TCP{}, thriftyN)
		for _, j := range dead {
			cl.Crash(rt.ProcID(j))
		}
		// A crash reaches the client as its connection closing; wait for
		// that, as a later election would find it.
		for _, j := range dead {
			conn := cl.Pool().links[j].Load().conn
			for deadline := time.Now().Add(10 * time.Second); conn.Send(&wire.Msg{Kind: wire.KindCollect, Reg: "probe"}) == nil; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("connection to crashed server %d never closed", j)
				}
			}
		}
		check(t, cl)
	})
}

// TestThriftyDegeneratesToBroadcast: up to n = quorum+slack the first wave
// is every server — small deployments behave exactly as before (that such a
// call arms no tick is rt's TestWideFromStart); one server more and the wave
// is a strict subset.
func TestThriftyDegeneratesToBroadcast(t *testing.T) {
	for n := 1; n <= 8; n++ {
		cl := newThriftyCluster(t, transport.NewLoopback(), n)
		c := cl.NewComm(NewParticipant(0, n, 1), 1, nil)
		want := min(n, n/2+1+thriftySlack)
		if c.sched.Wide() != (want == n) {
			t.Errorf("n=%d: client wide=%v, want %v", n, c.sched.Wide(), want == n)
		}
		c.Propagate("r", 1)
		served(t, cl, int64(want))
	}
}

// TestWideningIsVisible: an operator must be able to tell a widen from a
// resend from /metrics and from a trace. The set's spares are silenced for
// good and every server outside it loses its first reply, so the call needs
// its widen (tick 1) and at least one resend (tick 2) to assemble a quorum.
func TestWideningIsVisible(t *testing.T) {
	const election = 11
	reg, rec := obs.NewRegistry(), trace.NewRecorder(1<<10)
	cl, err := NewClusterWith(transport.NewLoopback(), thriftyN, ClusterOptions{Pool: PoolOptions{Metrics: reg, Trace: rec}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // teardown
	in, _ := firstWave(election, thriftyN)
	var replies [thriftyN]atomic.Int64
	c := cl.NewComm(NewParticipant(0, thriftyN, 1), election, &fault.Profile{
		Retransmit: 20 * time.Millisecond,
		ReplyDrop: func(server int) bool {
			if i := slices.Index(in, server); i >= 0 {
				return i <= thriftySlack
			}
			return replies[server].Add(1) == 1
		},
	})
	c.Propagate("r", 1)

	snap := reg.Snapshot()
	widened, resent := snap.Total("electd_pool_widened_calls_total"), snap.Total("electd_pool_retransmits_total")
	if widened != 1 || resent < 1 {
		t.Fatalf("/metrics: %d widened calls and %d retransmits, want 1 and at least 1", widened, resent)
	}
	var details []int64
	for _, sp := range rec.Spans() {
		if sp.Phase == trace.PRetransmit {
			if sp.Election != election {
				t.Errorf("retransmit event carries election %d, want %d", sp.Election, election)
			}
			details = append(details, sp.Detail)
		}
	}
	// Detail 0 is the widen, k the k-th resend after it.
	want := make([]int64, 1+resent)
	for i := range want {
		want[i] = int64(i)
	}
	if !slices.Equal(details, want) {
		t.Fatalf("retransmit event details %v, want %v (the widen, then %d resends)", details, want, resent)
	}
}
