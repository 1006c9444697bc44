package fault

import (
	"math/rand"
	"sync"
	"time"
)

// Profile is one participant's fault hooks for one run: everything a quorum
// client needs of a plan, and the one seam through which a plan reaches
// either live substrate — the in-process chan Comm and the electd Client
// take it at construction and consult nothing else of the plan. A nil
// *Profile is a fault-free participant, and so is every nil or zero field.
// Plan.Profile builds one from a plan; a test may set the fields itself.
type Profile struct {
	// Drop decides request-direction loss: true means the request to
	// server to dies on the wire. Called on the participant's goroutine.
	Drop func(to int) bool
	// Delay is the latency injected into the request to server to; the
	// request then rides a timer and the wave goes on. Called on the
	// participant's goroutine.
	Delay func(to int) time.Duration
	// ReplyDrop decides reply-direction loss: true means from's reply to
	// the participant dies on the wire. Called by whatever delivers replies
	// (the chan servers, electd's connection read loops), so it must be safe
	// for concurrent use.
	ReplyDrop func(from int) bool
	// Retransmit > 0 makes the quorum waits resend to the servers that have
	// not answered on that period — required for liveness under partitions,
	// flaky links and crash-recovery, since the algorithms never resend —
	// and makes its first tick the one that widens a thrifty first wave.
	Retransmit time.Duration
	// NoQuorum, once closed, unwinds the participant's current and later
	// quorum waits with a *NoQuorumError: the plan has provably cut it off
	// from every majority.
	NoQuorum <-chan struct{}
	// Crash is called on the participant's goroutine before and after each
	// communicate call. Once the participant has crashed it does not return:
	// it unwinds the goroutine with the runner's own panic value.
	Crash func()
}

// Profile builds participant proc's hooks under this plan; the nil plan
// builds nil. rng is the participant's goroutine-owned fault stream:
// request loss and send delays draw from it, and one draw here seeds the
// reply-loss stream, which a mutex guards. clock reads the run's elapsed
// fault clock, which the partition window is checked against, from any
// goroutine. noq and crash pass through as NoQuorum and Crash. A hook is
// set only when the plan can fire it, so a crash-only plan's sends take the
// fault-free path.
func (pl *Plan) Profile(proc int, rng *rand.Rand, clock func() time.Duration, noq <-chan struct{}, crash func()) *Profile {
	if pl == nil {
		return nil
	}
	fp := &Profile{NoQuorum: noq, Crash: crash}
	if pl.delays() {
		fp.Delay = func(to int) time.Duration { return pl.sendDelay(rng, proc, to) }
	}
	if pl.hasLinkFaults() {
		fp.Drop = func(to int) bool { return pl.dropMsg(rng, proc, to, clock()) }
		var mu sync.Mutex
		reply := rand.New(rand.NewSource(rng.Int63()))
		fp.ReplyDrop = func(from int) bool {
			elapsed := clock()
			mu.Lock()
			defer mu.Unlock()
			return pl.dropMsg(reply, from, proc, elapsed)
		}
	}
	if pl.needsRetransmit() {
		fp.Retransmit = pl.retransmitTick()
	}
	return fp
}
