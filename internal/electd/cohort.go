package electd

import (
	"math/bits"
	"sync/atomic"
)

// cohort is one election's participants in one pool, as far as the write
// loops under their requests go. Participants woken by replies that landed
// together queue their next requests together: the first of them to run
// would otherwise wake every idle first-wave link for its request alone,
// and each link would write that one frame before the batch of the others.
// So the router hands every participant whose call it completes while other
// calls of the election are still in the table a ticket (Pool.handle). A
// ticket holder's next thrifty first wave goes onto its links held
// (transport.HeldConn.SendHeld: queued, write loop left parked), and it
// hands the ticket back once that wave is queued, or when it leaves the
// election (Client.Leave). Whoever hands back the last ticket kicks every
// link the cohort held a request on, and each link carries the whole cohort
// in one write.
//
// Nothing waits on a ticket for long. Holders are participants the router
// has just woken, on their way to their next call; a lone or sequential
// caller finds no other call in the table and is never given one; only a
// wave whose widen tick is armed is held, so a ticket nobody hands back
// costs the held requests one tick, the widen, and never a hang; and a
// participant under a fault profile, whose steps the plan may slow, is never
// given one. Cohorts are per election, so two elections sharing a pool's
// links never wait on each other's: one election's put wakes a link for
// whatever another's held there.
type cohort struct {
	election uint64
	members  int // clients of the election that have not left; guarded by Pool.cohortMu

	open    atomic.Int64    // the election's calls in the call table
	tickets atomic.Int64    // tickets granted and not handed back
	held    []atomic.Uint64 // bit j%64 of word j/64: server j's link has held requests not yet kicked
}

// join returns election's cohort, making it for the election's first
// client.
func (pl *Pool) join(election uint64) *cohort {
	pl.cohortMu.Lock()
	defer pl.cohortMu.Unlock()
	co := pl.cohorts[election]
	if co == nil {
		co = &cohort{election: election, held: make([]atomic.Uint64, (pl.n+63)/64)}
		pl.cohorts[election] = co
	}
	co.members++
	return co
}

// depart drops one member from co, and co from the pool with its last.
func (pl *Pool) depart(co *cohort) {
	pl.cohortMu.Lock()
	defer pl.cohortMu.Unlock()
	if co.members--; co.members == 0 {
		delete(pl.cohorts, co.election)
	}
}

// grant gives the participant whose call p the router is completing a
// ticket, if other calls of its election are still in the table. The caller
// holds p's shard lock; rpc takes the ticket over when it retires the call.
func (co *cohort) grant(p *pending) {
	if p.cli.fp == nil && co.open.Load() > 1 {
		p.ticket = true
		co.tickets.Add(1)
	}
}

// hold marks server j's link as holding a request of the cohort.
func (co *cohort) hold(j int) { co.held[j/64].Or(1 << (j % 64)) }

// kick wakes the write loop of every link the cohort holds requests on.
func (pl *Pool) kick(co *cohort) {
	for w := range co.held {
		for set := co.held[w].Swap(0); set != 0; set &= set - 1 {
			j := w*64 + bits.TrailingZeros64(set)
			if link := pl.links[j].Load(); link != nil && link.held != nil {
				link.held.Kick()
			}
		}
	}
}

// release hands the client's ticket back, if it holds one, and kicks the
// cohort's held links if it was the last.
func (c *Client) release() {
	if !c.ticket {
		return
	}
	c.ticket = false
	if c.co.tickets.Add(-1) == 0 {
		c.pool.kick(c.co)
	}
}

// Leave ends the participant's part in the election: it hands back the
// ticket its last call may have left it (see cohort), so the requests other
// participants held for it go out, and drops the client from the pool's
// cohort table. Every client whose election other clients in the pool run
// concurrently must Leave once it makes no further call — on every exit
// path, a won, lost or aborted election alike — or those participants'
// held requests wait out a widen tick. Call it from the participant's
// goroutine, or after it has returned. Idempotent.
func (c *Client) Leave() {
	c.release()
	if !c.left {
		c.left = true
		c.pool.depart(c.co)
	}
}
