package electd

import (
	"strconv"

	"repro/internal/obs"
)

// Metric registration for the election service. Everything here is
// read-side: the instruments are func-backed views over the atomics and
// shard maps the service maintains anyway, so a metrics-enabled server or
// pool runs the exact same hot path as a bare one — the only new work
// happens at snapshot (scrape) time. The per-replica instruments carry a
// server="<id>" label so n in-process replicas share one registry without
// colliding; obs.Snapshot.Total sums across them.

// registerMetrics exposes the server's lifecycle instruments on r.
func (s *Server) registerMetrics(r *obs.Registry) {
	l := obs.L("server", strconv.Itoa(int(s.id)))
	r.NewCounterFunc("electd_requests_served_total", "requests answered (propagates, collects, busy replies)", s.Served, l)
	r.NewCounterFunc("electd_elections_started_total", "election instances created", s.started.Load, l)
	r.NewCounterFunc("electd_elections_evicted_total", "instances reclaimed by the sweeper (TTL + LRU + drain)", s.evicted.Load, l)
	r.NewCounterFunc("electd_elections_removed_total", "instances evicted by explicit RemoveElection", s.removed.Load, l)
	r.NewCounterFunc("electd_admission_shed_total", "propagates refused by admission control (bound hit, or draining)", s.shed.Load, l)
	r.NewCounterFunc("electd_late_propagates_total", "propagates refused because their election was already removed", s.late.Load, l)
	r.NewGaugeFunc("electd_elections_live", "election instances currently holding state", func() int64 {
		return int64(s.Elections())
	}, l)
	r.NewGaugeFunc("electd_draining", "1 while the server is draining", func() int64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	}, l)
}

// quorumLatencyBounds buckets quorum round trips in microseconds: 25µs to
// ~800ms, factor-2 — loopback in-process calls land in the first buckets,
// a congested TCP quorum in the middle, and stalls in the overflow.
var quorumLatencyBounds = obs.ExpBuckets(25, 2, 16)

// registerMetrics exposes the pool's client-side instruments on r and
// installs the hot-path histogram (quorum round-trip latency). Called from
// DialPoolOpts when PoolOptions.Metrics is set. A fault-free deployment
// reads 0 on the widened counter; anything else means calls are paying a
// tick for servers that do not answer.
func (pl *Pool) registerMetrics(r *obs.Registry) {
	r.NewGaugeFunc("electd_pending_calls", "communicate calls awaiting quorum replies", pl.pendingCalls)
	r.NewCounterFunc("electd_pool_requests_total", "requests the pool handed to its server connections, one frame each", pl.requests.Load)
	r.NewCounterFunc("electd_busy_shed_total", "quorum calls aborted by a server's busy reply", pl.busy.Load)
	r.NewCounterFunc("electd_pool_widened_calls_total", "quorum calls whose quorum+slack first wave fell short within a tick and went to all n servers", pl.widened.Load)
	r.NewCounterFunc("electd_pool_retransmits_total", "retransmit ticks of quorum calls already sent to all n servers (lossy transports, fault plans)", pl.resent.Load)
	pl.rpcHist = r.NewHistogram("electd_quorum_roundtrip_usec", "quorum round-trip latency, microseconds", quorumLatencyBounds)
}

// pendingCalls counts the communicate calls awaiting quorum replies.
func (pl *Pool) pendingCalls() (n int64) {
	for i := range pl.shards {
		sh := &pl.shards[i]
		sh.mu.Lock()
		n += int64(len(sh.calls))
		sh.mu.Unlock()
	}
	return n
}
