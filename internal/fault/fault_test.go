package fault

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestDistSample: each distribution kind respects its bounds.
func TestDistSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	if d := (Dist{}).Sample(rng); d != 0 {
		t.Errorf("zero Dist sampled %v, want 0", d)
	}
	fixed := Dist{Kind: Fixed, Base: 3 * time.Millisecond}
	for i := 0; i < 10; i++ {
		if d := fixed.Sample(rng); d != 3*time.Millisecond {
			t.Fatalf("fixed sampled %v", d)
		}
	}
	uni := Dist{Kind: Uniform, Base: time.Millisecond, Jitter: 2 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := uni.Sample(rng)
		if d < time.Millisecond || d >= 3*time.Millisecond {
			t.Fatalf("uniform sampled %v outside [1ms, 3ms)", d)
		}
	}
	par := Dist{Kind: Pareto, Base: 10 * time.Microsecond, Jitter: 50 * time.Microsecond, Alpha: 1.2}
	sawTail := false
	for i := 0; i < 5000; i++ {
		d := par.Sample(rng)
		if d < 10*time.Microsecond || d > DefaultCap {
			t.Fatalf("pareto sampled %v outside [10µs, DefaultCap]", d)
		}
		if d > time.Millisecond {
			sawTail = true
		}
	}
	if !sawTail {
		t.Error("5000 pareto(α=1.2) samples produced no >1ms straggler; tail missing")
	}
	capped := Dist{Kind: Pareto, Jitter: 50 * time.Microsecond, Alpha: 1.1, Cap: 200 * time.Microsecond}
	for i := 0; i < 2000; i++ {
		if d := capped.Sample(rng); d > 200*time.Microsecond {
			t.Fatalf("explicit cap violated: %v", d)
		}
	}
}

// TestMaxCrashes: the bound is ⌈n/2⌉−1.
func TestMaxCrashes(t *testing.T) {
	want := map[int]int{1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 16: 7, 17: 8}
	for n, m := range want {
		if got := MaxCrashes(n); got != m {
			t.Errorf("MaxCrashes(%d) = %d, want %d", n, got, m)
		}
	}
}

// TestValidate: the crash cap and parameter ranges are enforced.
func TestValidate(t *testing.T) {
	if err := (Scenario{Crashes: 2}).Validate(4); err == nil {
		t.Error("2 crashes at n=4 accepted (cap is 1)")
	}
	if err := (Scenario{Crashes: CrashMax}).Validate(4); err != nil {
		t.Errorf("CrashMax rejected: %v", err)
	}
	if err := (Scenario{Crashes: -2}).Validate(4); err == nil {
		t.Error("negative crash count accepted")
	}
	if err := (Scenario{ReorderProb: 1.5}).Validate(4); err == nil {
		t.Error("reorder probability > 1 accepted")
	}
	if err := (Scenario{SlowProcs: 9}).Validate(4); err == nil {
		t.Error("more slow processors than the system holds accepted")
	}
	for _, s := range Presets() {
		if err := s.Validate(8); err != nil {
			t.Errorf("preset %q invalid at n=8: %v", s.Name, err)
		}
	}
}

// TestPlanDeterminism: the same (scenario, n, seed) draws the same victims,
// times and slow sets; a different seed draws a different plan.
func TestPlanDeterminism(t *testing.T) {
	s := Chaos()
	a, err := s.Plan(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Plan(16, 42)
	if !reflect.DeepEqual(a.Crashes, b.Crashes) || !reflect.DeepEqual(a.Slow, b.Slow) {
		t.Error("equal seeds drew different plans")
	}
	c, _ := s.Plan(16, 43)
	if reflect.DeepEqual(a.Crashes, c.Crashes) {
		t.Error("different seeds drew identical crash schedules")
	}
}

// TestPlanShape: the materialized plan respects the scenario's counts and
// the model's crash cap, with distinct victims inside the crash window.
func TestPlanShape(t *testing.T) {
	const n = 17
	pl, err := CrashMinority().Plan(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Crashes) != MaxCrashes(n) {
		t.Fatalf("CrashMax resolved to %d victims, want %d", len(pl.Crashes), MaxCrashes(n))
	}
	seen := map[int]bool{}
	for _, cr := range pl.Crashes {
		if cr.Proc < 0 || cr.Proc >= n {
			t.Fatalf("victim %d outside [0, %d)", cr.Proc, n)
		}
		if seen[cr.Proc] {
			t.Fatalf("victim %d crashed twice", cr.Proc)
		}
		seen[cr.Proc] = true
		if cr.At < 0 || cr.At >= DefaultCrashWindow {
			t.Fatalf("crash time %v outside the default window", cr.At)
		}
	}

	sl, err := SlowThird().Plan(9, 7)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := 0; i < 9; i++ {
		if sl.IsSlow(i) {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("SlowThirdOfN at n=9 marked %d processors, want 3", count)
	}
}

// TestInactivePlanIsNil: the fault-free scenario materializes to nil so the
// backend's hot path stays a nil check, and nil plans inject nothing.
func TestInactivePlanIsNil(t *testing.T) {
	pl, err := Baseline().Plan(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pl != nil {
		t.Fatalf("baseline plan = %+v, want nil", pl)
	}
	rng := rand.New(rand.NewSource(1))
	if fp := pl.Profile(0, rng, nil, nil, nil); fp != nil {
		t.Errorf("nil plan built the fault profile %+v", fp)
	}
	if d := pl.StepDelay(rng, 0); d != 0 {
		t.Errorf("nil plan step delay %v", d)
	}
	if pl.IsSlow(0) {
		t.Error("nil plan marks processors slow")
	}
}

// TestSendDelayComposition: slow endpoints add their tax on top of link
// latency, in either direction.
func TestSendDelayComposition(t *testing.T) {
	s := Scenario{
		Name:      "compose",
		Link:      Dist{Kind: Fixed, Base: 100 * time.Microsecond},
		SlowProcs: 1,
		Slow:      Dist{Kind: Fixed, Base: time.Millisecond},
	}
	pl, err := s.Plan(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	slow := -1
	for i := 0; i < 4; i++ {
		if pl.IsSlow(i) {
			slow = i
		}
	}
	if slow < 0 {
		t.Fatal("no slow processor drawn")
	}
	rng := rand.New(rand.NewSource(1))
	fast := (slow + 1) % 4
	if d := pl.sendDelay(rng, fast, (slow+2)%4); d != 100*time.Microsecond {
		t.Errorf("fast→fast delay %v, want pure link latency", d)
	}
	if d := pl.sendDelay(rng, slow, fast); d != 1100*time.Microsecond {
		t.Errorf("slow→fast delay %v, want link+slow", d)
	}
	if d := pl.sendDelay(rng, fast, slow); d != 1100*time.Microsecond {
		t.Errorf("fast→slow delay %v, want link+slow", d)
	}
	if d := pl.StepDelay(rng, slow); d != time.Millisecond {
		t.Errorf("slow step delay %v", d)
	}
	if d := pl.StepDelay(rng, fast); d != 0 {
		t.Errorf("fast step delay %v", d)
	}
}

// TestLookup: every preset resolves by name; unknown names don't.
func TestLookup(t *testing.T) {
	for _, name := range Names() {
		s, ok := Lookup(name)
		if !ok || s.Name != name {
			t.Errorf("Lookup(%q) = (%q, %v)", name, s.Name, ok)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("unknown scenario resolved")
	}
}

// TestChaosGridPlanDeterminism: for every chaos-grid scenario, equal
// (n, seed) pairs materialize byte-identical plans — partition windows and
// sides, crash and rejoin times, drop matrices, everything — which is what
// lets the chaos runner re-derive the exact plan a run executed under and
// validate its outcome against it.
func TestChaosGridPlanDeterminism(t *testing.T) {
	for _, sc := range ChaosGrid() {
		a, err := sc.Plan(16, 99)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		b, _ := sc.Plan(16, 99)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds drew different plans", sc.Name)
		}
	}
	// And seeds actually matter: the drop matrix of the asymmetric flaky
	// scenario re-rolls (6 of 240 links colliding across two seeds would
	// mean the seed is not reaching the PRNG).
	a, _ := FlakyAsym().Plan(16, 1)
	c, _ := FlakyAsym().Plan(16, 2)
	if reflect.DeepEqual(a.Drop, c.Drop) {
		t.Error("flaky-asym: different seeds drew identical drop matrices")
	}
}

// TestChaosGridPlanBounds: every materialized plan of the grid respects the
// declarative scenario's bounds — minority sizes, side constraints, rejoin
// ordering, drop-probability domain — across seeds.
func TestChaosGridPlanBounds(t *testing.T) {
	const n = 16
	for _, sc := range ChaosGrid() {
		for seed := int64(1); seed <= 20; seed++ {
			pl, err := sc.Plan(n, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			if pl == nil {
				continue // baseline
			}
			if part := pl.Partition; part != nil {
				m := 0
				for _, b := range part.Minority {
					if b {
						m++
					}
				}
				if m < 1 || m > MaxCrashes(n) {
					t.Errorf("%s seed %d: minority size %d outside [1, %d]", sc.Name, seed, m, MaxCrashes(n))
				}
				if part.End != 0 && part.End <= part.Start {
					t.Errorf("%s seed %d: partition window [%v, %v) empty", sc.Name, seed, part.Start, part.End)
				}
				switch sc.Partition.Clients {
				case SideMinority:
					if !part.Minority[0] {
						t.Errorf("%s seed %d: SideMinority left processor 0 on the majority side", sc.Name, seed)
					}
				case SideMajority:
					for i := 0; i < (n+1)/2; i++ {
						if part.Minority[i] {
							t.Errorf("%s seed %d: SideMajority put low id %d on the minority side", sc.Name, seed, i)
						}
					}
				}
			}
			if sc.RecoverAfter > 0 {
				if len(pl.Recoveries) != len(pl.Crashes) {
					t.Fatalf("%s seed %d: %d recoveries for %d crashes", sc.Name, seed, len(pl.Recoveries), len(pl.Crashes))
				}
				crashAt := map[int]time.Duration{}
				for _, cr := range pl.Crashes {
					crashAt[cr.Proc] = cr.At
				}
				for _, rc := range pl.Recoveries {
					at, ok := crashAt[rc.Proc]
					if !ok {
						t.Fatalf("%s seed %d: recovery of uncrashed %d", sc.Name, seed, rc.Proc)
					}
					if rc.At < at+sc.RecoverAfter || rc.At >= at+sc.RecoverAfter+sc.RecoverJitter+1 {
						t.Errorf("%s seed %d: proc %d rejoins at %v, crash %v + after %v + jitter %v",
							sc.Name, seed, rc.Proc, rc.At, at, sc.RecoverAfter, sc.RecoverJitter)
					}
					if got, ok := pl.RecoveryOf(rc.Proc); !ok || got != rc.At {
						t.Errorf("%s seed %d: RecoveryOf(%d) = (%v, %v)", sc.Name, seed, rc.Proc, got, ok)
					}
				}
			}
			if len(pl.Drop) > n*(n-1) {
				t.Errorf("%s seed %d: %d flaky links exceed n(n-1)", sc.Name, seed, len(pl.Drop))
			}
			for key, p := range pl.Drop {
				src, dst := key/n, key%n
				if src == dst || src < 0 || src >= n || dst < 0 || dst >= n {
					t.Errorf("%s seed %d: drop key %d is not a directed link", sc.Name, seed, key)
				}
				if p <= 0 || p > 1 {
					t.Errorf("%s seed %d: drop probability %v outside (0, 1]", sc.Name, seed, p)
				}
			}
			if (pl.Partition != nil || len(pl.Drop) > 0 || len(pl.Recoveries) > 0) && !pl.needsRetransmit() {
				t.Errorf("%s seed %d: lossy plan does not ask for retransmission", sc.Name, seed)
			}
			// Electable and StarveAt must agree, for every client.
			for i := 0; i < n; i++ {
				at, starved := pl.StarveAt(i)
				if pl.Electable(i) == starved {
					t.Errorf("%s seed %d: Electable(%d)=%v but StarveAt starved=%v", sc.Name, seed, i, pl.Electable(i), starved)
				}
				if starved && at < 0 {
					t.Errorf("%s seed %d: negative starvation time %v", sc.Name, seed, at)
				}
			}
		}
	}
}

// TestElectabilityContract: Validate rejects scenarios whose permanent
// faults could starve a client of quorums forever unless the scenario
// declares NoQuorumOK, and the materialized plan pinpoints exactly which
// clients are cut off.
func TestElectabilityContract(t *testing.T) {
	never := Scenario{Name: "cut", Partition: &PartitionSpec{Start: time.Millisecond, Minority: MinorityMax}}
	if err := never.Validate(8); err == nil {
		t.Error("never-healing partition validated without NoQuorumOK")
	}
	never.NoQuorumOK = true
	if err := never.Validate(8); err != nil {
		t.Errorf("NoQuorumOK partition rejected: %v", err)
	}

	blackout := Scenario{Name: "blackout", LossProb: 1, LossLinks: AllLinks}
	if err := blackout.Validate(8); err == nil {
		t.Error("total loss validated without NoQuorumOK")
	}
	blackout.NoQuorumOK = true
	if err := blackout.Validate(8); err != nil {
		t.Errorf("NoQuorumOK blackout rejected: %v", err)
	}
	pl, err := blackout.Plan(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if pl.Electable(i) {
			t.Errorf("client %d electable under total permanent loss", i)
		}
		if at, starved := pl.StarveAt(i); !starved || at != 0 {
			t.Errorf("client %d starves at %v (%v), want 0 (true)", i, at, starved)
		}
	}

	// A minority-side client of a never-healing partition is starved from
	// the partition's start; majority-side clients stay electable.
	cut := Scenario{Name: "cut", NoQuorumOK: true,
		Partition: &PartitionSpec{Start: 200 * time.Microsecond, Minority: MinorityMax, Clients: SideMinority}}
	cpl, err := cut.Plan(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cpl.Electable(0) {
		t.Error("processor 0 electable on the minority side of a permanent cut")
	}
	if at, starved := cpl.StarveAt(0); !starved || at != cut.Partition.Start {
		t.Errorf("processor 0 starves at %v (%v), want %v", at, starved, cut.Partition.Start)
	}
	for i := 0; i < 8; i++ {
		if !cpl.Partition.Minority[i] && !cpl.Electable(i) {
			t.Errorf("majority-side processor %d not electable", i)
		}
	}
}
