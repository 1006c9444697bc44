package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/rt"
)

// TestSystemPoolRecyclesAndResets: Put/Get hands back the same System,
// fully reset — registers empty, call counters zeroed, crash flags down —
// with its server goroutines still parked on their mailboxes.
func TestSystemPoolRecyclesAndResets(t *testing.T) {
	const n = 4
	pool := NewSystemPool(n, true)
	defer pool.Close()

	sys := pool.Get(1, nil)
	c := sys.Proc(0).checkout(nil)
	c.Propagate("r", "dirty")
	views := c.Collect("r")
	if len(views) != n/2+1 {
		t.Fatalf("collect returned %d views, want %d", len(views), n/2+1)
	}
	sys.Crash(1)
	pool.Put(sys)
	if len(pool.free) != 1 {
		t.Fatalf("%d systems parked, want 1", len(pool.free))
	}

	got := pool.Get(2, nil)
	if got != sys {
		t.Fatal("pool built a fresh system instead of recycling")
	}
	if len(pool.free) != 0 {
		t.Fatalf("%d systems parked after checkout, want 0", len(pool.free))
	}
	if got.Crashed(1) {
		t.Fatal("crash flag survived the reset")
	}
	if calls := got.Proc(0).CommCalls(); calls != 0 {
		t.Fatalf("CommCalls after reset = %d, want 0", calls)
	}
	// The recycled system's registers must be construction-fresh: a collect
	// on the previously dirtied register sees only empty views.
	c2 := got.Proc(2).checkout(nil)
	for _, v := range c2.Collect("r") {
		if len(v.Entries) != 0 {
			t.Fatalf("recycled system leaked register state: %+v", v.Entries)
		}
	}
	pool.Put(got)
}

// TestNetworkedSystemBuildsNoChanSubstrate: a networked run's quorum
// traffic goes through electd servers, so a pooled system built for one
// holds no mailbox and no register store — before its first run, after it,
// and through Put and a recycling Get.
func TestNetworkedSystemBuildsNoChanSubstrate(t *testing.T) {
	const n = 8
	pool := NewSystemPool(n, false)
	defer pool.Close()
	bare := func(when string, sys *System) {
		t.Helper()
		for _, p := range sys.procs {
			if p.inbox != nil || p.regs != nil {
				t.Fatalf("%s: processor %d holds a mailbox (%v) or a register store (%v)", when, p.id, p.inbox != nil, p.regs != nil)
			}
		}
	}
	sys := pool.Get(1, nil)
	bare("fresh", sys)
	pool.Put(sys)
	if _, err := Elect(Config{N: n, Seed: 2, Transport: TransportTCP, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if pool.Get(3, nil) != sys {
		t.Fatal("pool built a fresh system instead of recycling")
	}
	bare("after a TCP election", sys)
	pool.Put(sys)
}

// TestParkedSystemHoldsNoElectionState: Put releases what the run left in
// the stores and handles, so a system waiting in the pool pins no cell, no
// adopted payload, no snapshot, no published state, no view a handle's
// arena or tally handed out and no fault hook. (That the stores keep their
// empty arrays for the next run of the same algorithm is regstore's
// TestResetKeepsArraysDropsState.)
func TestParkedSystemHoldsNoElectionState(t *testing.T) {
	const n = 8
	pool := NewSystemPool(n, true)
	defer pool.Close()
	if _, err := Elect(Config{N: n, Seed: 1, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	sys := pool.Get(2, nil)
	sys.Proc(1).Publish("state")
	c := sys.Proc(0).checkout(&fault.Profile{ReplyDrop: func(int) bool { return false }})
	c.Propagate("r", "dirty")
	if views := c.Collect("r"); len(views[1].Entries) == 0 {
		t.Fatal("the collect's views carry no entry: the test would check nothing")
	}
	sys.quiesce() // the first wave's stragglers have merged too
	holders := 0
	for _, p := range sys.procs {
		if p.regs.Load("r", 0) != nil {
			holders++
		}
	}
	if holders <= n/2 {
		t.Fatalf("%d processors hold r[0] after a propagate, want a majority: the test would check nothing", holders)
	}
	pool.Put(sys)

	// "r" is this test's register; the others are the election's first two.
	for _, p := range sys.procs {
		for _, reg := range []string{"r", "elect/door", "elect/round"} {
			for owner := rt.ProcID(0); owner < n; owner++ {
				if e := p.regs.Load(reg, owner); e != nil {
					t.Fatalf("parked processor %d still holds %s[%d] = %+v", p.id, reg, owner, *e)
				}
			}
			if snap, _ := p.regs.Snapshot(reg); len(snap.Entries) != 0 || snap.Size != 0 {
				t.Fatalf("parked processor %d still serves a snapshot of %s: %+v", p.id, reg, snap.Entries)
			}
		}
		if p.Published() != nil {
			t.Fatalf("parked processor %d still holds published state %v", p.id, p.Published())
		}
		c := p.comm
		for i, v := range c.views[:cap(c.views)] {
			if v.Entries != nil {
				t.Fatalf("parked processor %d's handle still holds view %d of its arena: %+v", p.id, i, v.Entries)
			}
		}
		got := c.tally.Replies()
		for i, r := range got[:cap(got)] {
			if r.view.Entries != nil {
				t.Fatalf("parked processor %d's tally still holds reply %d: %+v", p.id, i, r.view.Entries)
			}
		}
		if c.fp != nil || !reflect.ValueOf(&c.tally).Elem().FieldByName("lose").IsNil() {
			t.Fatalf("parked processor %d's handle still holds its fault hooks", p.id)
		}
	}
}

// TestPooledHandleMatchesFresh: a processor's handle, checked out for a
// fault-free run after an election under a retransmitting, reply-dropping
// plan in which calls widened, is NewComm(p, nil) in everything but what it
// keeps — the tally's arrays and token channel, the arena, the timer
// (stopped) and the ordinal counter. A token left in the channel would let
// a call return short of its quorum: communicate trusts it without
// counting.
func TestPooledHandleMatchesFresh(t *testing.T) {
	const n = 8
	sc := fault.Flaky()
	plan, err := sc.Plan(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp := plan.Profile(0, rand.New(rand.NewSource(1)), func() time.Duration { return 0 }, func() {}); fp.Retransmit == 0 || fp.ReplyDrop == nil {
		t.Fatalf("%s does not both retransmit and drop replies: the test would check less", sc.Name)
	}
	pool := NewSystemPool(n, true)
	defer pool.Close()
	var sys *System
	widened := 0
	for seed := int64(1); widened == 0; seed++ {
		if seed > 20 {
			t.Fatalf("no call widened in 20 elections under %s", sc.Name)
		}
		if _, err := Elect(Config{N: n, Seed: seed, Scenario: sc, Pool: pool}); err != nil {
			t.Fatal(err)
		}
		sys = pool.Get(100+seed, nil)
		for _, p := range sys.procs {
			widened += p.comm.sched.Widens()
		}
		if widened == 0 {
			pool.Put(sys)
		}
	}
	defer pool.Put(sys)

	for _, p := range sys.procs {
		ord := p.comm.ord
		c := p.checkout(nil)
		fresh := NewComm(p, nil)
		switch {
		case c.p != p || c.fp != nil || c.round != 0 || len(c.views) != 0:
			t.Fatalf("processor %d: handle kept p=%v fp=%v round=%d views=%d", p.id, c.p != p, c.fp, c.round, len(c.views))
		case c.ord != ord || ord == 0:
			t.Fatalf("processor %d: ordinal counter %d before the checkout and %d after; want it kept and past 0", p.id, ord, c.ord)
		}
		if diff := tallyDiff(&c.tally, &fresh.tally); diff != "" {
			t.Fatalf("processor %d: checked-out tally differs from a fresh one:%s", p.id, diff)
		}
		if diff := scheduleDiff(&c.sched, &fresh.sched); diff != "" {
			t.Fatalf("processor %d: checked-out schedule differs from a fresh one:%s", p.id, diff)
		}
	}
}

// tallyDiff lists the fields in which got differs from want, a fresh
// handle's tally — by reflection, as rt.Tally keeps its fields to itself.
// Of the arrays and channel a reset keeps it checks that nothing is
// answered, counted or waiting: a stale token, say, or a stale answer.
func tallyDiff(got, want *rt.Tally[reply]) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	var diff strings.Builder
	for i := range g.NumField() {
		name := g.Type().Field(i).Name
		gf, wf := g.Field(i), w.Field(i)
		switch name {
		case "seen":
			if gf.Len() != wf.Len() {
				fmt.Fprintf(&diff, "\n\tseen is %d long, fresh %d", gf.Len(), wf.Len())
			}
			for j := range gf.Len() {
				if gf.Index(j).Bool() {
					fmt.Fprintf(&diff, "\n\tseen[%d] is marked", j)
				}
			}
		case "got", "sig":
			if gf.Len() != 0 {
				fmt.Fprintf(&diff, "\n\t%s holds %d", name, gf.Len())
			}
		default:
			if gs, ws := fmt.Sprint(gf), fmt.Sprint(wf); gs != ws {
				fmt.Fprintf(&diff, "\n\t%s = %s, fresh %s", name, gs, ws)
			}
		}
	}
	return diff.String()
}

// scheduleDiff lists the fields in which got differs from want, a fresh
// schedule, leaving out the three a reset keeps: of those it checks that
// the suspect marks are clear and that the timer, if any, is stopped.
func scheduleDiff(got, want *rt.Schedule) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	var diff strings.Builder
	for i := range g.NumField() {
		name := g.Type().Field(i).Name
		gf, wf := g.Field(i), w.Field(i)
		switch name {
		case "tmr":
			if !gf.IsNil() && (*time.Timer)(gf.UnsafePointer()).Stop() {
				diff.WriteString("\n\ttmr was running")
			}
		case "suspect":
			for j := range gf.Len() {
				if gf.Index(j).Bool() {
					fmt.Fprintf(&diff, "\n\tsuspect[%d] is marked", j)
				}
			}
		case "ans":
		default:
			if gs, ws := fmt.Sprint(gf), fmt.Sprint(wf); gs != ws {
				fmt.Fprintf(&diff, "\n\t%s = %s, fresh %s", name, gs, ws)
			}
		}
	}
	return diff.String()
}

// TestReopenedSlotRefusesLastRun: a pooled handle's ordinals run on across
// runs, so a straggler of the last run — here a reply to its first call —
// finds the next run's first call's tally open for another ordinal and is
// refused; and a call the last run abandoned with its quorum in (its
// goroutine unwound) leaves no token for the next run to trust.
func TestReopenedSlotRefusesLastRun(t *testing.T) {
	const n = 4 // need 2
	pool := NewSystemPool(n, true)
	defer pool.Close()
	sys := pool.Get(1, nil)
	c := sys.Proc(0).checkout(nil)
	c.Collect("r")
	first := c.ord
	c.ord++ // a call that unwound after its quorum came in
	c.mu.Lock()
	c.tally.Open(&c.mu, c.ord, nil)
	c.mu.Unlock()
	c.deliver(c.ord, reply{from: 1})
	c.deliver(c.ord, reply{from: 2})
	if _, _, tokens := tallyState(c); tokens != 1 {
		t.Fatal("setup: the abandoned call's quorum left no token")
	}
	pool.Put(sys)

	sys = pool.Get(2, nil)
	defer pool.Put(sys)
	c = sys.Proc(0).checkout(nil)
	if call, _, tokens := tallyState(c); tokens != 0 || call != 0 {
		t.Fatalf("checkout left %d tokens and the tally open for %d", tokens, call)
	}
	c.mu.Lock()
	c.tally.Open(&c.mu, c.ord+1, nil) // the run's first call
	c.mu.Unlock()
	c.deliver(first, reply{from: 1})
	if _, replies, _ := tallyState(c); replies != 0 {
		t.Fatalf("the next run's first call counted a reply to the last run's first call (ordinal %d)", first)
	}
}

// TestResetMatchesFreshSeeding: a recycled system's PRNG streams are
// math/rand's own for the sharded seeds — coin stream i is
// rand.NewSource(seed + i·SeedStride), fault stream i the same seed salted —
// whether the System came from newSystem or the pool, however many
// checkouts a processor sat out without drawing, so pooling never perturbs
// campaign statistics.
func TestResetMatchesFreshSeeding(t *testing.T) {
	const n, seed = 3, 42
	plan, err := fault.Chaos().Plan(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	// want checks every processor's coin and fault streams against fresh
	// math/rand sources, reading each through a mix of Rand methods.
	want := func(label string, sys *System, seed int64) {
		t.Helper()
		for i, p := range sys.procs {
			base := int64(uint64(seed) + uint64(i)*SeedStride)
			for _, st := range []struct {
				name      string
				got, want *rand.Rand
			}{
				{"coin", p.rng, rand.New(rand.NewSource(base))},
				{"fault", p.frng, rand.New(rand.NewSource(base ^ faultStreamSalt))},
			} {
				for d := 0; d < 16; d++ {
					var g, w uint64
					switch d % 3 {
					case 0:
						g, w = uint64(st.got.Int63()), uint64(st.want.Int63())
					case 1:
						g, w = st.got.Uint64(), st.want.Uint64()
					default:
						g, w = uint64(st.got.Intn(1000)), uint64(st.want.Intn(1000))
					}
					if g != w {
						t.Fatalf("%s: proc %d %s draw %d: %d, math/rand %d", label, i, st.name, d, g, w)
					}
				}
			}
		}
	}
	fresh := newSystem(n, seed, plan, true)
	defer fresh.Shutdown()
	want("fresh", fresh, seed)

	pool := NewSystemPool(n, true)
	defer pool.Close()
	sys := pool.Get(7, nil) // a different seed first, to dirty the streams
	for i := 0; i < n; i++ {
		sys.Proc(rt.ProcID(i)).Rand().Int63()
	}
	pool.Put(sys)
	for _, s := range []int64{8, 9, 10} { // checkouts in which nobody draws
		pool.Put(pool.Get(s, plan))
	}
	sys = pool.Get(seed, plan)
	defer pool.Put(sys)
	want("pooled", sys, seed)
}

// TestResetSeedsNoStream: a checkout only re-keys the streams; each is
// built at its first draw, so a recycled system hands its processors out
// with no source seeded, with or without a plan, and a fresh one too.
func TestResetSeedsNoStream(t *testing.T) {
	const n = 4
	plan, err := fault.Chaos().Plan(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	unseeded := func(label string, sys *System) {
		t.Helper()
		for _, p := range sys.procs {
			if p.coins.Seeded() || p.faults.Seeded() {
				t.Fatalf("%s: processor %d's coin stream seeded=%v, fault stream seeded=%v; want neither before a draw",
					label, p.id, p.coins.Seeded(), p.faults.Seeded())
			}
		}
	}
	pool := NewSystemPool(n, true)
	defer pool.Close()
	sys := pool.Get(1, plan)
	unseeded("fresh", sys)
	for _, p := range sys.procs {
		p.Flip(0.5)
		p.frng.Int63()
		if !p.coins.Seeded() || !p.faults.Seeded() {
			t.Fatalf("processor %d drew from both streams and left one unseeded", p.id)
		}
	}
	pool.Put(sys)
	for _, pl := range []*fault.Plan{nil, plan} {
		sys = pool.Get(2, pl)
		unseeded(fmt.Sprintf("recycled, plan=%v", pl != nil), sys)
		pool.Put(sys)
	}
}

// TestPooledElectionsWithCrashScenario: crash-plan runs ride the pool too —
// checkout fully resets a recycled system (crashed slots are dropped flags,
// their serve goroutines never exited), so consecutive faulty elections on
// one pooled system stay safe and live.
func TestPooledElectionsWithCrashScenario(t *testing.T) {
	const n = 5
	pool := NewSystemPool(n, true)
	defer pool.Close()
	sawCrash := false
	for i := 0; i < 6; i++ {
		res, err := Elect(Config{N: n, Seed: int64(i + 1), Scenario: fault.CrashOne(), Pool: pool})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(res.Crashed) > 0 {
			sawCrash = true
			if res.Winner >= 0 && res.Decisions[res.Winner] != core.Win {
				t.Fatalf("run %d: inconsistent winner bookkeeping: %+v", i, res)
			}
		} else if res.Winner < 0 {
			t.Fatalf("run %d: no winner without crashes", i)
		}
	}
	if len(pool.free) != 1 {
		t.Fatalf("%d systems parked, want 1 (every run reused one system)", len(pool.free))
	}
	_ = sawCrash // crash timing is scheduling-dependent; liveness is the assertion
}

// TestPoolConfigValidation: a pool that does not match the run's size or
// substrate is rejected before anything runs.
func TestPoolConfigValidation(t *testing.T) {
	pool := NewSystemPool(3, true)
	defer pool.Close()
	if _, err := Elect(Config{N: 4, Seed: 1, Pool: pool}); err == nil {
		t.Fatal("size-mismatched pool accepted")
	}
	if _, err := Elect(Config{N: 3, Seed: 1, Transport: TransportTCP, Pool: pool}); err == nil {
		t.Fatal("substrate-mismatched pool accepted")
	}
}

// TestPooledStateMatchesFresh: the State a checkout hands a participant is
// core.NewState's in every field but the ones it keeps on purpose — the
// sifting table and the register names — after pooled runs in which its
// processor won, lost at the door, crashed and starved; and it is the State
// the processor publishes.
func TestPooledStateMatchesFresh(t *testing.T) {
	const n, algo = 8, "poisonpill"
	kept := map[string]bool{"scratch": true, "names": true, "subs": true}
	typ := reflect.TypeFor[core.State]()
	for i := range typ.NumField() {
		if f := typ.Field(i); !f.IsExported() && !kept[f.Name] {
			t.Fatalf("core.State has a field %s the checkout neither compares nor keeps: list it here", f.Name)
		}
	}
	cut := fault.Scenario{Name: "cut-minority", NoQuorumOK: true,
		Partition: &fault.PartitionSpec{Start: 100 * time.Microsecond,
			Minority: fault.MinorityMax, Clients: fault.SideMinority}}
	pool := NewSystemPool(n, true)
	defer pool.Close()
	seen := map[string]bool{}
	for seed := int64(1); len(seen) < 4; seed++ {
		if seed > 20 {
			t.Fatalf("20 rounds of runs left their processors only %v", seen)
		}
		for _, sc := range []fault.Scenario{{}, fault.CrashMinority(), cut} {
			res, err := Elect(Config{N: n, Seed: seed, Scenario: sc, Pool: pool})
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			sys := pool.Get(seed, nil)
			for _, p := range sys.procs {
				switch s := p.state; {
				case slices.Contains(res.Crashed, p.id):
					seen["crashed"] = true
				case slices.Contains(res.NoQuorum, p.id):
					seen["starved"] = true
				case s.Decision == core.Win:
					seen["won"] = true
				case s.Decision == core.Lose && s.Round == 0:
					seen["lost at the door"] = true
				}
				fresh := core.NewState(p, algo)
				got := p.checkoutState(algo)
				if p.Published() != got {
					t.Fatalf("%s seed %d: processor %d publishes %v, not its checked-out State", sc.Name, seed, p.id, p.Published())
				}
				g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(fresh).Elem()
				for i := range typ.NumField() {
					if f := typ.Field(i); f.IsExported() && !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
						t.Fatalf("%s seed %d: processor %d's checked-out State has %s = %v, a fresh one %v",
							sc.Name, seed, p.id, f.Name, g.Field(i), w.Field(i))
					}
				}
			}
			pool.Put(sys)
		}
	}
}

// TestParkedParticipantsExitOnClose: a pooled system runs one participant
// goroutine per processor beside its server goroutine, and no more, however
// many elections it hosts — crash-scenario ones included, whose
// participants unwind mid-run — and closing the pool ends them all.
func TestParkedParticipantsExitOnClose(t *testing.T) {
	const n, elections, slack = 8, 200, 4
	// settled waits for the goroutine count to fall to at most limit:
	// a goroutine past its last statement still counts for a moment.
	settled := func(limit int) int {
		deadline := time.Now().Add(2 * time.Second)
		for {
			g := runtime.NumGoroutine()
			if g <= limit || time.Now().After(deadline) {
				return g
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := runtime.NumGoroutine()
	pool := NewSystemPool(n, true)
	elect := func(i int) {
		sc := fault.Scenario{}
		if i%2 == 1 {
			sc = fault.CrashMinority()
		}
		if _, err := Elect(Config{N: n, Seed: int64(i + 1), Scenario: sc, Pool: pool}); err != nil {
			t.Fatalf("election %d (%s): %v", i, sc.Name, err)
		}
	}
	elect(0)
	if g := settled(before + 2*n); g > before+2*n {
		t.Fatalf("%d goroutines before the first election and %d after it: a system of %d runs more than its %d servers and %d participants", before, g, n, n, n)
	}
	first := runtime.NumGoroutine()
	for i := 1; i < elections; i++ {
		elect(i)
		if g := settled(first + slack); g > first+slack {
			t.Fatalf("%d goroutines after election %d, %d after the first", g, i, first)
		}
	}
	if len(pool.free) != 1 {
		t.Fatalf("%d systems parked, want 1", len(pool.free))
	}
	pool.Close()
	if g := settled(before); g > before {
		t.Fatalf("%d goroutines after closing the pool, %d before it was made", g, before)
	}
}

// TestConcurrentPooledElectionsReadOwnResults: workers sharing one pool
// each read their election's results — decisions and Rounds, which come
// from the processors' kept States — before the system goes back to the
// pool, where another worker's checkout resets those States. Under -race a
// read after Put is a reported race; without, each election must still
// judge valid with a round count a winner can have.
func TestConcurrentPooledElectionsReadOwnResults(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const n, workers, each = 16, 4, 25
	pool := NewSystemPool(n, true)
	defer pool.Close()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range each {
				seed := int64(w*each + e + 1)
				res, err := Elect(Config{N: n, Seed: seed, Pool: pool})
				if err != nil {
					errs <- fmt.Errorf("seed %d: %w", seed, err)
					return
				}
				winner, err := core.JudgeElection(n, res.Decisions)
				switch {
				case err != nil:
					errs <- fmt.Errorf("seed %d: %w", seed, err)
					return
				case winner != res.Winner:
					errs <- fmt.Errorf("seed %d: the judge elects %d, the result %d", seed, winner, res.Winner)
					return
				case res.Rounds < 2 || res.Rounds > 64:
					// A winner passes PreRound's R < r−1 test: round 2 at
					// the earliest.
					errs <- fmt.Errorf("seed %d: %d rounds", seed, res.Rounds)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
