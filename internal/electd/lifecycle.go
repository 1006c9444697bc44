package electd

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
)

// ServerOptions tunes a Server's state lifecycle. The zero value disables
// all of it: no eviction, no admission bound, no metrics — exactly the
// pre-lifecycle server, which retains instance state until RemoveElection.
type ServerOptions struct {
	// TTL evicts election instances that no request has touched for this
	// long; 0 disables TTL eviction. The TTL is a host policy living above
	// the quorum semantics, so it must be set from knowledge of the
	// workload: an instance evicted while its election still runs loses
	// register state on this replica, exactly like a crash — safe within
	// the model's ⌈n/2⌉−1 fault budget but not free. Pick a TTL longer
	// than the longest idle gap a live election can have (for the paper's
	// algorithms, the gap between two communicate calls of its slowest
	// participant), the same contract session TTLs have everywhere.
	TTL time.Duration

	// SweepInterval is how often the background sweeper scans for evictable
	// instances. 0 defaults to TTL/4 (bounded to [10ms, 10s]) when TTL is
	// set; with TTL == 0 and MaxLivePerShard == 0 no sweeper runs at all.
	SweepInterval time.Duration

	// MaxLivePerShard bounds the election instances one shard will host; 0
	// means unbounded. Above the bound, propagates that would create a new
	// instance are refused with a busy reply (admission control — see
	// Server.Handle), and the sweeper additionally evicts the
	// least-recently-used instances of an over-full shard even before
	// their TTL, so a burst that was admitted drains back under the bound.
	MaxLivePerShard int

	// Metrics, when non-nil, registers the server's gauges and counters on
	// the registry, labeled server="<id>". The instruments are read-side
	// (func-backed from the atomics the server maintains anyway), so
	// enabling metrics adds nothing to the request path.
	Metrics *obs.Registry

	// Trace, when non-nil, records server-phase spans (shard-lock wait,
	// register merge, snapshot hit/miss, reply assembly) into the
	// election flight recorder. Nil leaves Handle untraced and unchanged.
	Trace *trace.Recorder
}

// NewServerOpts creates replica id with an explicit lifecycle. A sweeper
// goroutine runs iff TTL or MaxLivePerShard is set; stop it with Close.
func NewServerOpts(id rt.ProcID, opts ServerOptions) *Server {
	s := &Server{id: id, opts: opts}
	for i := range s.shards {
		empty := electionMap{}
		s.shards[i].live.Store(&empty)
	}
	if opts.Metrics != nil {
		s.registerMetrics(opts.Metrics)
	}
	if opts.TTL > 0 || opts.MaxLivePerShard > 0 {
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop()
	}
	return s
}

// sweepInterval resolves the sweeper's period from the options.
func (s *Server) sweepInterval() time.Duration {
	if s.opts.SweepInterval > 0 {
		return s.opts.SweepInterval
	}
	if s.opts.TTL > 0 {
		iv := s.opts.TTL / 4
		if iv < 10*time.Millisecond {
			iv = 10 * time.Millisecond
		}
		if iv > 10*time.Second {
			iv = 10 * time.Second
		}
		return iv
	}
	return time.Second
}

// sweepLoop is the background sweeper: every interval it evicts what the
// TTL and the per-shard bound say is reclaimable. It holds each shard's
// lock only for that shard's scan, so a sweep never stalls the service.
func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.sweepInterval())
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			s.sweepOnce(s.opts.TTL)
		}
	}
}

// sweepOnce runs one eviction pass with an explicit idle bar: instances
// untouched for longer than idle are evicted (idle <= 0 disables that
// half), and shards still above MaxLivePerShard afterwards lose their
// least-recently-used instances down to the bound. It returns how many
// instances were evicted. Drain calls this directly with its own bar.
//
// Eviction mutates under the shard mutex by republishing the map without
// the victims — lifecycle stays locked, the request paths stay lock-free,
// and requests mid-flight on the old map finish against state the sweeper
// merely unpublished (exactly a crash of that replica's copy, which the
// quorum model already tolerates).
func (s *Server) sweepOnce(idle time.Duration) int {
	now := time.Now().UnixNano()
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		cur := sh.instances()
		doomed := map[uint64]bool{}
		if idle > 0 {
			cutoff := now - int64(idle)
			for id, st := range cur {
				if st.last.Load() <= cutoff {
					doomed[id] = true
				}
			}
		}
		if bound := s.opts.MaxLivePerShard; bound > 0 && len(cur)-len(doomed) > bound {
			// LRU eviction down to the bound: sort the survivors by idle
			// clock and drop the oldest. Shards are small (the bound caps
			// them), so the sort is cheap and only runs on over-full shards.
			type rec struct {
				id   uint64
				last int64
			}
			recs := make([]rec, 0, len(cur))
			for id, st := range cur {
				if !doomed[id] {
					recs = append(recs, rec{id, st.last.Load()})
				}
			}
			sort.Slice(recs, func(a, b int) bool { return recs[a].last < recs[b].last })
			for _, r := range recs[:len(recs)-bound] {
				doomed[r.id] = true
			}
		}
		if len(doomed) > 0 {
			next := make(electionMap, len(cur)-len(doomed))
			for id, st := range cur {
				if !doomed[id] {
					next[id] = st
				}
			}
			sh.live.Store(&next)
			total += len(doomed)
		}
		sh.mu.Unlock()
	}
	if total > 0 {
		s.evicted.Add(int64(total))
	}
	return total
}

// BeginDrain flips the server into drain mode: propagates that would
// create a new election instance are refused with busy replies, while
// requests for instances that already exist keep being served so in-flight
// elections can finish. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether the server is in drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// drainIdle is the quiescence bar Drain uses: an instance untouched for
// this long during a drain — or for the TTL, when that is shorter — is
// considered finished and evicted.
const drainIdle = 250 * time.Millisecond

// Drain gracefully quiesces the server: stop admitting new elections, then
// wait for the live ones to finish — an instance untouched for drainIdle
// is finished, there being no in-protocol completion signal — evicting
// them as they go idle. It returns nil once no instances remain, or an
// error listing the stragglers if the deadline passes first (the server
// keeps draining; callers typically exit non-zero).
func (s *Server) Drain(timeout time.Duration) error {
	s.BeginDrain()
	bar := drainIdle
	if s.opts.TTL > 0 && s.opts.TTL < bar {
		bar = s.opts.TTL
	}
	deadline := time.Now().Add(timeout)
	for {
		s.sweepOnce(bar)
		n := s.Elections()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("electd: drain deadline (%v) passed with %d election instance(s) still live on server %d", timeout, n, s.id)
		}
		// Poll at a quarter of the idle bar, clamped to [1ms, 100ms] and to
		// the deadline, so a long bar never oversleeps a short timeout.
		wait := bar / 4
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		if until := time.Until(deadline); wait > until {
			wait = until
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		time.Sleep(wait)
	}
}

// Close stops the background sweeper (if any). It does not touch election
// state or the transport listener; pair it with the listener's Close.
// Idempotent and safe on a zero-options server.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.sweepStop != nil {
			close(s.sweepStop)
			<-s.sweepDone
		}
	})
	return nil
}

// Evicted reports how many election instances the sweeper has reclaimed
// (TTL and LRU combined, drain included).
func (s *Server) Evicted() int64 { return s.evicted.Load() }

// Shed reports how many propagates admission control refused with a busy
// reply: the shard was at its bound, or the server draining.
func (s *Server) Shed() int64 { return s.shed.Load() }

// Started reports how many election instances the server has created.
func (s *Server) Started() int64 { return s.started.Load() }

// BusyError is the typed, retryable error a quorum call surfaces when a
// server refuses to admit its election (admission bound hit, or the server
// is draining). The election made no progress this call on that server;
// the write is NOT on a quorum, and the caller should back off and retry
// the whole election (against the same cluster later, or another one), not
// resume mid-protocol.
type BusyError struct {
	Election uint64
}

// Error implements error.
func (e *BusyError) Error() string {
	return fmt.Sprintf("electd: election %d refused admission (server busy or draining)", e.Election)
}

// CatchBusy runs f, converting a busy shed inside it into a *BusyError.
// The rt.Comm interface has no error path — the paper's model has no
// refusals, only crashes — so the client unwinds a shed election with a
// panic the same way the live backend unwinds crashed participants, and
// CatchBusy is the recover point drivers wrap an election attempt in. Any
// other panic propagates.
func CatchBusy(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if be, ok := r.(*BusyError); ok {
				err = be
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}
