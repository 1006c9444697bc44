package quorum

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		payload any
		want    MsgKind
	}{
		{propagateMsg{}, KindPropagate},
		{ackMsg{}, KindPropagateAck},
		{collectMsg{}, KindCollect},
		{collectAck{}, KindCollectAck},
		{"other", KindOther},
		{42, KindOther},
	}
	for _, tc := range cases {
		if got := Classify(tc.payload); got != tc.want {
			t.Fatalf("Classify(%T) = %v, want %v", tc.payload, got, tc.want)
		}
	}
}

func TestRegularityUnderAdversarialDelivery(t *testing.T) {
	// Regular-register property through the full stack: a Collect that
	// begins after a Propagate completes must return the written value (or
	// newer) in at least one view, under a randomized adversary. Many seeds.
	for seed := int64(0); seed < 25; seed++ {
		const n = 7
		k := sim.NewKernel(sim.Config{N: n, Seed: seed})
		stores := InstallStores(k)
		writerDone := false
		sawFresh := false
		k.Spawn(0, func(p *sim.Proc) {
			c := NewComm(p, stores[0])
			c.Propagate("x", "v1")
			c.Propagate("x", "v2")
			writerDone = true
		})
		k.Spawn(3, func(p *sim.Proc) {
			c := NewComm(p, stores[3])
			p.Await(func() bool { return writerDone })
			for _, v := range c.Collect("x") {
				if val, ok := v.Get(0); ok && val == "v2" {
					sawFresh = true
				}
			}
		})
		// Randomized delivery order.
		rng := rand.New(rand.NewSource(seed * 31))
		adv := sim.AdversaryFunc(func(k *sim.Kernel) sim.Action {
			if k.InflightCount() > 0 && rng.Intn(3) == 0 {
				if id, ok := k.RandomInflight(rng); ok {
					return sim.Deliver{Msg: id}
				}
			}
			return k.FairAction()
		})
		if _, err := k.Run(adv); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !sawFresh {
			t.Fatalf("seed=%d: collect after completed write missed v2 (regularity violated)", seed)
		}
	}
}
