// Package electd is the election service: the long-lived daemon half of the
// network subsystem, hosting the paper's register arrays behind quorum
// reads and writes, plus the client side participants use to run elections
// against a set of servers over a real transport.
//
// The deployment shape follows Attiya–Bar-Noy–Dolev emulation as practised
// by production coordination services: n *servers* replicate the register
// state (a majority of them must stay up — the paper's ⌈n/2⌉−1 crash
// bound), while any number of *participants* run the election algorithms as
// clients, each communicate call waiting for ⌊n/2⌋+1 of the n servers'
// answers — asking a quorum plus two spares first and all n only when a
// tick passes without one (rt.Schedule). Any two quorums intersect in a
// correct server, which is the only property the paper's proofs use — so PoisonPill, the
// tournament and the sifting rounds run unchanged through rt.Comm.
//
// One server set multiplexes many concurrent election instances: every
// frame carries an election ID, and servers keep disjoint register state
// per ID (the paper's "protocols for different rounds are completely
// disjoint" taken one level up). That is what lets internal/campaign fan
// hundreds of elections over a single set of listening servers instead of
// building a cluster per run. Because instances are disjoint, both halves
// of the service shard by election: the server's state and the client
// pool's routing tables split into fixed lock-striped shards, so two
// concurrent elections never serialize on the same mutex — an engineering
// layer beneath the quorum semantics, which are untouched.
//
// Composition: Server is the passive replica (give its Handle to a
// transport Listener); Pool is a client-process connection pool over the n
// servers; Client is one participant's rt.Comm in one election; Cluster
// bundles n servers plus a pool in one process for tests, benchmarks and
// the live backend's TCP mode; Participant is a minimal rt.Procer for
// driving elections from processes that are not live-backend runs
// (cmd/electd).
package electd

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/regstore"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// serverShards is the number of lock stripes an election server splits its
// state into — a fixed power of two so shard selection is a multiply and a
// shift. 16 stripes keep the per-shard collision probability low for any
// realistic number of concurrently multiplexed elections while costing
// sixteen small maps' worth of idle memory per server.
const (
	serverShardBits = 4
	serverShards    = 1 << serverShardBits
)

// electionShard maps an election ID to its shard index via Fibonacci
// hashing: sequential IDs (the common case — Cluster.NextElectionID is a
// counter) land round-robin, and adversarial or sparse ID patterns still
// spread, because the golden-ratio multiply mixes all input bits into the
// top ones.
func electionShard(election uint64) uint64 {
	return (election * 0x9E3779B97F4A7C15) >> (64 - serverShardBits)
}

// shard is one stripe of a Server: the election instances whose IDs hash
// here, published as an RCU map, plus the stripe's mutex — which guards
// *mutation* of the instance set only (create, evict, restart), never a
// steady-state request — and the stripe's share of the served counter.
// Request paths load the published map with one atomic read; lifecycle
// operations copy it, mutate the copy, and republish under mu. The
// trailing pad keeps neighbouring stripes' hot fields off one cache line,
// so two cores serving disjoint elections do not false-share.
//
// retired is the stripe's memory of finished elections: a ring of the last
// retiredRing IDs RemoveElection was called with (TTL and LRU evictions are
// not recorded — an instance the sweeper took may still be running). A
// broadcast outlives its quorum, so a straggler propagate routinely reaches
// a slow server after the election has finished and been removed; admit
// consults the ring and refuses to create an instance for it, which would
// otherwise live forever on a server without a TTL. Guarded by mu and read
// only on admit's slow path. The memory is bounded, so the protection is
// too: an ID ages out after retiredRing further removals on the stripe
// (16×retiredRing on the server, on average), and a straggler later than
// that — very many concurrent elections, or a replica that far behind —
// is admitted like a first propagate. Such a server still wants a TTL.
type shard struct {
	mu     sync.Mutex
	live   atomic.Pointer[electionMap]
	served atomic.Int64

	retired  [retiredRing]uint64
	nRetired uint64 // IDs ever retired; the next one lands in retired[nRetired%retiredRing]

	_ [32]byte // pad to three cache lines; see struct comment
}

// retiredRing is how many removed election IDs one stripe remembers.
const retiredRing = 16

// retire records that election was removed. Caller holds mu.
func (sh *shard) retire(election uint64) {
	sh.retired[sh.nRetired%retiredRing] = election
	sh.nRetired++
}

// wasRetired reports whether election is among the stripe's recently
// removed IDs. Caller holds mu.
func (sh *shard) wasRetired(election uint64) bool {
	for _, id := range sh.retired[:min(sh.nRetired, retiredRing)] {
		if id == election {
			return true
		}
	}
	return false
}

// electionMap is the immutable published election ID → instance map of one
// shard. Mutation = copy + republish under shard.mu.
type electionMap = map[uint64]*store

// instances returns the shard's current published instance map. The map is
// immutable — index it, iterate it, never write it.
func (sh *shard) instances() electionMap { return *sh.live.Load() }

// Server is one register replica: it merges propagated entries and answers
// collects with snapshots, never initiating traffic. State is striped
// across serverShards independent shards keyed by election ID — elections
// are disjoint by construction, so requests of different elections touch
// different locks and a server does O(1) map work per message with
// contention only among the participants of one instance.
//
// A long-lived server is a real service, not a benchmark fixture, so its
// election state has a lifecycle (see ServerOptions): idle instances are
// TTL-evicted by a background sweeper, a per-shard live-instance bound
// sheds new elections with busy replies when exceeded, and BeginDrain
// flips the server into a stop-admitting mode for graceful shutdown. All
// of it defaults to off — a zero-options server behaves exactly like the
// pre-lifecycle one and retains state until RemoveElection.
type Server struct {
	id     rt.ProcID
	opts   ServerOptions
	shards [serverShards]shard

	crashed  atomic.Bool
	draining atomic.Bool

	// Lifecycle counters, summed into the admin metrics when registered.
	started atomic.Int64 // election instances created
	evicted atomic.Int64 // instances the sweeper reclaimed (TTL + LRU)
	removed atomic.Int64 // instances evicted by explicit RemoveElection
	shed    atomic.Int64 // propagates refused admission (bound hit, or draining)
	late    atomic.Int64 // propagates refused because their election was already removed

	// lockedOps counts request-path shard-mutex acquisitions. With the
	// lock-free hot path the only request that may lock is a propagate
	// whose election instance does not exist yet (admission control needs
	// an exact live count); steady-state propagates and collects never
	// touch it. Tests assert a zero delta across steady-state load, which
	// is the repo's measured statement of "the collect path performs zero
	// mutex acquisitions".
	lockedOps atomic.Int64

	sweepStop chan struct{}
	sweepDone chan struct{}
	closeOnce sync.Once
}

// NewServer creates replica id (the identity stamped on its views) with
// the zero lifecycle options: no eviction, no admission bound, no metrics.
func NewServer(id rt.ProcID) *Server {
	return NewServerOpts(id, ServerOptions{})
}

// ID returns the replica's identity.
func (s *Server) ID() rt.ProcID { return s.id }

// Served reports how many requests the server has answered, summed across
// its shards.
func (s *Server) Served() int64 {
	var total int64
	for i := range s.shards {
		total += s.shards[i].served.Load()
	}
	return total
}

// Elections reports how many election instances the server currently
// hosts state for, summed across its shards. Reads the published maps, so
// it never contends with request traffic or lifecycle mutation.
func (s *Server) Elections() int {
	total := 0
	for i := range s.shards {
		total += len(s.shards[i].instances())
	}
	return total
}

// LockedOps reports how many requests have acquired a shard mutex — with
// the lock-free hot path, exactly the propagates that created a new
// election instance. Benchmarks and tests use the delta across a
// steady-state window to assert the hot path stayed lock-free.
func (s *Server) LockedOps() int64 { return s.lockedOps.Load() }

// RemoveElection evicts one election instance's register state. There is
// no in-protocol completion signal (a participant cannot know whether
// others still need the registers), so hosts garbage-collect finished
// instances either explicitly — the campaign engine removes each election
// once its run completes — or via the TTL sweeper (ServerOptions.TTL) on
// standalone daemons. Removal locks only the instance's shard — and only
// its lifecycle half: the shard's map is republished without the
// instance, while in-flight requests keep working on the map they loaded,
// so teardown churn never stalls any request, related or not.
//
// Removal retires the ID: propagates for it that arrive afterwards — the
// stragglers of the election's last broadcasts, typically — are refused
// with a busy reply instead of re-creating the instance (see shard.retired;
// counted in LatePropagates). The ID is recorded even when this replica
// holds no instance yet, since a slow replica can receive an election's
// first propagate after its removal. Election IDs are therefore single-use
// across RemoveElection.
func (s *Server) RemoveElection(election uint64) {
	sh := &s.shards[electionShard(election)]
	sh.mu.Lock()
	sh.retire(election)
	cur := sh.instances()
	if _, ok := cur[election]; ok {
		next := make(electionMap, len(cur)-1)
		for k, v := range cur {
			if k != election {
				next[k] = v
			}
		}
		sh.live.Store(&next)
		s.removed.Add(1)
	}
	sh.mu.Unlock()
}

// Crash fails the replica: every subsequent request is dropped unanswered.
// The transport's Listener.Crash handles the connection-level half.
func (s *Server) Crash() { s.crashed.Store(true) }

// Restart revives a crashed replica: it resumes answering with whatever
// register state it held when it crashed — the crash-recovery model of a
// replica whose durable state survived. Restart only flips the replica's
// own drop-everything switch; connections severed by the transport half of
// a crash stay severed until the listener Recovers and clients redial.
// Cluster.Restart performs the full sequence (replica, listener, pool) so
// a fault.Plan's recovery reaches quorum traffic end to end.
func (s *Server) Restart() { s.crashed.Store(false) }

// Crashed reports whether the replica has been crashed.
func (s *Server) Crashed() bool { return s.crashed.Load() }

// store is one election instance on one server: its register state
// (lock-free, see internal/regstore) and its idle clock — the UnixNano of the
// most recent request that touched it — which the sweeper compares against
// the TTL and the drain idle bar.
type store struct {
	regs *regstore.Store
	last atomic.Int64
}

// newStore builds an empty instance whose snapshots are the encoded view
// tail (entry by entry, wire.AppendEntry) that Handle splices into collect
// replies, and nothing else.
func newStore() *store { return &store{regs: regstore.New(wire.AppendEntry)} }

// emptyTail is the encoded tail of a view over an absent register array, and
// of one whose entries the codec refuses (none can arrive through it): an
// entry count of zero.
var emptyTail = []byte{0}

// Handle is the transport.Handler of the replica: merge propagates, answer
// collects, drop everything else. Replies return over the inbound
// connection — which coalesces them into one batch frame when the requests
// arrived as one (see transport.Handler) — and are assembled directly from
// header fields plus the cached encoded snapshot, so the server never
// builds or walks a reply message. Handle takes ownership of m and of its
// entry storage: the server is a request's terminal consumer (a winning
// merge copies the entry into the instance's slab, never keeps the slice),
// so a request recycles whole on the way out and the next decode on it
// reuses the entry array — the propagate path's steady state allocates
// nothing per request but one slab per 64 winning merges.
//
// Admission control lives here: a propagate that would create a new
// election instance while the server is draining, or while the instance's
// shard is at its live-election bound, is answered with a busy reply
// instead — an explicit shed the client surfaces as a BusyError, never
// silent loss. So is a propagate for an election RemoveElection has
// already retired (a straggler nobody waits for, or a caller reusing an
// ID), counted apart from the sheds. Requests for instances that already
// exist always proceed (in-flight elections are allowed to finish), and
// collects never create state, so they are never shed.
//
// Steady state is lock-free end to end: requests find their instance with
// one atomic load of the shard's published map, merges CAS the register
// cells, and collects serve the RCU-published snapshot (see internal/regstore).
// The only request that can touch the shard mutex is a propagate whose
// instance does not exist yet — admission control needs an exact live
// count — and that acquisition is counted in Server.LockedOps so tests
// can hold the hot path to zero. The PShardWait trace phase survives as
// the instance lookup/admission span: in steady state it collapses to the
// cost of an atomic load, which is the point.
func (s *Server) Handle(c transport.Conn, m *wire.Msg) {
	if m.Kind != wire.KindPropagate && m.Kind != wire.KindCollect {
		// Replies arriving at a server are protocol noise. A view's entries
		// may be the process-wide view memo's (wire.DecodeShared), not the
		// server's to recycle: drop the message whole.
		wire.PutMsg(m)
		return
	}
	defer wire.RecycleMsg(m)
	if s.crashed.Load() {
		return // a crashed server loses requests, no acknowledgment
	}
	switch m.Kind {
	case wire.KindPropagate:
		rec := s.opts.Trace
		now := time.Now().UnixNano()
		sh := &s.shards[electionShard(m.Election)]
		var lookT0, mergeT0 int64
		if rec != nil {
			lookT0 = trace.Now()
		}
		st := sh.instances()[m.Election]
		if st == nil {
			st = s.admit(sh, m.Election)
			if st == nil {
				sh.served.Add(1)
				s.reply(c, wire.KindBusy, m, nil)
				return
			}
		}
		if rec != nil {
			mergeT0 = trace.Now()
			rec.Record(m.Election, 0, trace.PShardWait, lookT0, mergeT0-lookT0, 0)
		}
		st.last.Store(now)
		for i := range m.Entries {
			st.regs.MergeCopy(&m.Entries[i]) // m's entry storage is recycled with it
		}
		if rec != nil {
			rec.Record(m.Election, 0, trace.PMerge, mergeT0, trace.Now()-mergeT0, int64(len(m.Entries)))
		}
		sh.served.Add(1)
		s.reply(c, wire.KindAck, m, nil)
	case wire.KindCollect:
		rec := s.opts.Trace
		now := time.Now().UnixNano()
		sh := &s.shards[electionShard(m.Election)]
		var lookT0, snapT0 int64
		if rec != nil {
			lookT0 = trace.Now()
		}
		st := sh.instances()[m.Election]
		if rec != nil {
			snapT0 = trace.Now()
			rec.Record(m.Election, 0, trace.PShardWait, lookT0, snapT0-lookT0, 0)
		}
		tail := emptyTail
		hit := int64(1) // an absent instance or array rebuilds nothing
		if st != nil {
			st.last.Store(now) // reads keep an instance live, like writes
			snap, cached := st.regs.Snapshot(m.Reg)
			if snap.Enc != nil {
				tail = snap.Enc
			}
			if !cached {
				hit = 0
			}
		}
		if rec != nil {
			rec.Record(m.Election, 0, trace.PSnapshot, snapT0, trace.Now()-snapT0, hit)
		}
		sh.served.Add(1)
		s.reply(c, wire.KindView, m, tail)
	}
}

// admit resolves a propagate for an election instance the published map
// does not hold: under the shard mutex — the one request-path lock left,
// counted in lockedOps — it re-checks the map (a racing propagate may
// have created the instance), applies admission control, and otherwise
// creates the instance and republishes the map. Returns nil when the
// propagate must be refused with a busy reply, having counted why: late
// for an election RemoveElection already retired — no state is created for
// it — and shed for the admission bound or a drain.
func (s *Server) admit(sh *shard, election uint64) *store {
	s.lockedOps.Add(1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.instances()
	if st := cur[election]; st != nil {
		return st
	}
	if sh.wasRetired(election) {
		s.late.Add(1)
		return nil
	}
	if s.draining.Load() || (s.opts.MaxLivePerShard > 0 && len(cur) >= s.opts.MaxLivePerShard) {
		s.shed.Add(1)
		return nil
	}
	st := newStore()
	next := make(electionMap, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[election] = st
	sh.live.Store(&next)
	s.started.Add(1)
	return st
}

// reply sends one assembled reply frame for request m. Send errors are
// message loss, as on any dead link.
func (s *Server) reply(c transport.Conn, kind wire.Kind, m *wire.Msg, tail []byte) {
	rec := s.opts.Trace
	var t0 int64
	if rec != nil {
		t0 = trace.Now()
	}
	reg := ""
	if kind == wire.KindView {
		reg = m.Reg
	}
	frame, err := wire.AppendReplyFrame(wire.GetBuf(), kind, m.Election, m.Call, s.id, reg, tail)
	if err != nil {
		wire.PutBuf(frame)
		return // oversized reply: loss
	}
	n := len(frame)
	c.SendEncoded(frame) //nolint:errcheck
	if rec != nil {
		rec.Record(m.Election, 0, trace.PReply, t0, trace.Now()-t0, int64(n))
	}
}
