package electd

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/regstore"
	"repro/internal/rt"
)

// Participant is a minimal rt.Procer for running the election algorithms
// as a pure network client — one goroutine, a private PRNG, no backend
// kernel. It is what Pool.Elect and client-only processes hand to
// core.LeaderElect next to a Pool client; live-backend runs use the richer
// live.Proc (crash unwinding, scenario throttling) instead.
type Participant struct {
	id  rt.ProcID
	n   int
	rng *rand.Rand

	mu        sync.Mutex
	published any
}

// NewParticipant creates participant id with a deterministic private PRNG.
// ids is the participant id space — the "n" the algorithms see: every
// participant id in the election must lie in [0, ids), since the paper's
// algorithms size their bookkeeping (and the PoisonPill coin bias 1/√n) by
// it. It is independent of the server count: in the client/server split the
// quorum size comes from the Pool, not from here.
func NewParticipant(id rt.ProcID, ids int, seed int64) *Participant {
	return &Participant{id: id, n: ids, rng: rand.New(rand.NewSource(seed))}
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
// waits for all of them. The run is valid when no replica shed it and
// exactly one participant won; otherwise the error says which, and for a
// shed election it wraps the *BusyError. It is the one election driver of
// `electd -elect`, `-demo` and Soak. k must lie in [1, regstore.MaxOwners]:
// every replica drops the cells of a participant id beyond the register
// store's owners, so a larger k is an error before any participant starts.
func (pl *Pool) Elect(id uint64, k int, seed int64) (Election, error) {
	if k < 1 || k > regstore.MaxOwners {
		return Election{Winner: -1}, fmt.Errorf("participants %d must be in [1, %d]", k, regstore.MaxOwners)
	}
	decisions := make([]core.Decision, k)
	shed := make([]error, k)
	var msgs, bytes atomic.Int64
	var wg sync.WaitGroup
	for i := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewParticipant(rt.ProcID(i), k, seed+int64(i))
			c := pl.NewComm(p, id, nil)
			defer c.Leave()
			shed[i] = CatchBusy(func() {
				decisions[i] = core.LeaderElectWithState(c, "elect", core.NewState(p, "leaderelect"))
			})
			msgs.Add(c.Messages())
			bytes.Add(c.Bytes())
		}()
	}
	wg.Wait()
	e := Election{Winner: -1, Msgs: msgs.Load(), Bytes: bytes.Load()}
	for _, err := range shed {
		if err != nil {
			return e, fmt.Errorf("shed by a busy replica: %w", err)
		}
	}
	winner := rt.ProcID(-1)
	for i, d := range decisions {
		if d != core.Win {
			continue
		}
		if winner >= 0 {
			return e, fmt.Errorf("processors %d and %d both won", winner, i)
		}
		winner = rt.ProcID(i)
	}
	if winner < 0 {
		return e, errors.New("no winner")
	}
	e.Winner = winner
	return e, nil
}
