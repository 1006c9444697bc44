package electd

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/regstore"
	"repro/internal/rt"
)

// Participant is a minimal rt.Procer for running the election algorithms
// as a pure network client — one goroutine, a private PRNG, no backend
// kernel. It is what Pool.Elect and client-only processes hand to
// core.LeaderElectWithState next to a Pool client; live-backend runs use
// the richer live.Proc (crash unwinding, scenario throttling) instead.
type Participant struct {
	id  rt.ProcID
	n   int
	rng *rand.Rand

	mu        sync.Mutex
	published any
}

// NewParticipant creates participant id with a deterministic private PRNG:
// the stream of rand.NewSource(seed), seeded at its first draw
// (rt.LazySource), so a participant that loses at the doorway before any
// coin flip never builds one.
// ids is the participant id space — the "n" the algorithms see: every
// participant id in the election must lie in [0, ids), since the paper's
// algorithms size their bookkeeping (and the PoisonPill coin bias 1/√n) by
// it. It is independent of the server count: in the client/server split the
// quorum size comes from the Pool, not from here.
func NewParticipant(id rt.ProcID, ids int, seed int64) *Participant {
	return &Participant{id: id, n: ids, rng: rt.NewRand(seed)}
}

// ID implements rt.Procer.
func (p *Participant) ID() rt.ProcID { return p.id }

// N implements rt.Procer: the participant id space.
func (p *Participant) N() int { return p.n }

// Rand implements rt.Procer: the participant's private PRNG, owned by its
// algorithm goroutine.
func (p *Participant) Rand() *rand.Rand { return p.rng }

// Pause implements rt.Procer.
func (p *Participant) Pause() { runtime.Gosched() }

// Flip implements rt.Procer: a biased local coin flip followed by a yield,
// preserving the "flip, then lose control" shape of the model.
func (p *Participant) Flip(prob float64) int {
	v := 0
	if p.rng.Float64() < prob {
		v = 1
	}
	runtime.Gosched()
	return v
}

// Publish implements rt.Procer.
func (p *Participant) Publish(state any) {
	p.mu.Lock()
	p.published = state
	p.mu.Unlock()
}

// Published returns the last published state.
func (p *Participant) Published() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.published
}

// Election is one Pool.Elect run: its winner and the requests its
// participants sent.
type Election struct {
	Winner      rt.ProcID // -1 unless exactly one participant won
	Msgs, Bytes int64     // requests and their bytes, summed over participants
}

// Elect runs one PoisonPill election on instance id with k participants,
// participant i on its own goroutine with a Participant seeded seed+i, and
// waits for all of them. The run is valid when no replica shed it, no
// participant's call gave up on its quorum and exactly one participant won;
// otherwise the error says which, wrapping the *BusyError of a shed election
// and the *fault.NoQuorumError of a starved one (a call gives up on a
// retransmitting pool, such as one on UDP, when its backoff hears nothing
// new, and on a reliable one when its live links fall short of a quorum).
// It is the one election driver of
// `electd -elect`, `-demo` and Soak. k must lie in [1, regstore.MaxOwners]:
// every replica drops the cells of a participant id beyond the register
// store's owners, so a larger k is an error before any participant starts.
func (pl *Pool) Elect(id uint64, k int, seed int64) (Election, error) {
	if k < 1 || k > regstore.MaxOwners {
		return Election{Winner: -1}, fmt.Errorf("participants %d must be in [1, %d]", k, regstore.MaxOwners)
	}
	decisions := make(map[rt.ProcID]core.Decision, k)
	var mu sync.Mutex
	failed := make([]error, k)
	var msgs, bytes atomic.Int64
	var wg sync.WaitGroup
	for i := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewParticipant(rt.ProcID(i), k, seed+int64(i))
			c := pl.NewComm(p, id, nil)
			defer c.Leave()
			failed[i] = unwound(func() {
				d := core.LeaderElectWithState(c, "elect", core.NewState(p, "leaderelect"))
				mu.Lock()
				decisions[p.ID()] = d
				mu.Unlock()
			})
			msgs.Add(c.Messages())
			bytes.Add(c.Bytes())
		}()
	}
	wg.Wait()
	e := Election{Winner: -1, Msgs: msgs.Load(), Bytes: bytes.Load()}
	for _, err := range failed {
		if err != nil {
			return e, err
		}
	}
	winner, err := core.JudgeElection(k, decisions)
	if err != nil {
		return e, err
	}
	e.Winner = winner
	return e, nil
}

// unwound runs a participant and reports a shed or a quorum give-up.
func unwound(participant func()) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *fault.NoQuorumError:
			err = fmt.Errorf("starved of a quorum: %w", r)
		default:
			panic(r)
		}
	}()
	if err := CatchBusy(participant); err != nil {
		return fmt.Errorf("shed by a busy replica: %w", err)
	}
	return nil
}
