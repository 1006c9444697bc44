package live

import (
	"testing"

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
	c := NewComm(sys.Proc(0), nil)
	c.Propagate("r", "dirty")
	views := c.Collect("r")
	if len(views) != n/2+1 {
		t.Fatalf("collect returned %d views, want %d", len(views), n/2+1)
	}
	sys.Crash(1)
	pool.Put(sys)
	if pool.Idle() != 1 {
		t.Fatalf("Idle() = %d, want 1", pool.Idle())
	}

	got := pool.Get(2, nil)
	if got != sys {
		t.Fatal("pool built a fresh system instead of recycling")
	}
	if pool.Idle() != 0 {
		t.Fatalf("Idle() after checkout = %d, want 0", pool.Idle())
	}
	if got.Crashed(1) {
		t.Fatal("crash flag survived the reset")
	}
	if calls := got.Proc(0).CommCalls(); calls != 0 {
		t.Fatalf("CommCalls after reset = %d, want 0", calls)
	}
	// The recycled system's registers must be construction-fresh: a collect
	// on the previously dirtied register sees only empty views.
	c2 := NewComm(got.Proc(2), nil)
	for _, v := range c2.Collect("r") {
		if len(v.Entries) != 0 {
			t.Fatalf("recycled system leaked register state: %+v", v.Entries)
		}
	}
	pool.Put(got)
}

// TestParkedSystemHoldsNoElectionState: Put releases what the run left in
// the stores, so a system waiting in the pool pins no cell, no adopted
// payload, no snapshot and no published state. (That the
// stores keep their empty arrays for the next run of the same algorithm is
// regstore's TestResetKeepsArraysDropsState.)
func TestParkedSystemHoldsNoElectionState(t *testing.T) {
	const n = 8
	pool := NewSystemPool(n, true)
	defer pool.Close()
	if _, err := Elect(Config{N: n, Seed: 1, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	sys := pool.Get(2, nil)
	sys.Proc(1).Publish("state")
	c := NewComm(sys.Proc(0), nil)
	c.Propagate("r", "dirty")
	c.Collect("r")
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
	}
}

// TestResetMatchesFreshSeeding: a recycled system's PRNG streams are
// indistinguishable from a freshly constructed system's — equal seeds give
// equal coin flips whether the System came from NewSystem or the pool, so
// pooling never perturbs campaign statistics.
func TestResetMatchesFreshSeeding(t *testing.T) {
	const n, seed = 3, 42
	fresh := NewSystem(n, seed)
	defer fresh.Shutdown()

	pool := NewSystemPool(n, true)
	defer pool.Close()
	sys := pool.Get(7, nil) // a different seed first, to dirty the streams
	for i := 0; i < n; i++ {
		sys.Proc(rt.ProcID(i)).Rand().Int63()
	}
	pool.Put(sys)
	sys = pool.Get(seed, nil)
	defer pool.Put(sys)

	for i := 0; i < n; i++ {
		want := fresh.Proc(rt.ProcID(i)).Rand()
		got := sys.Proc(rt.ProcID(i)).Rand()
		for d := 0; d < 16; d++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("proc %d draw %d: pooled %d != fresh %d", i, d, g, w)
			}
		}
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
	if pool.Idle() != 1 {
		t.Fatalf("Idle() = %d, want 1 (every run reused one system)", pool.Idle())
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
