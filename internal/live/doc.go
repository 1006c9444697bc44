// Package live is the real-concurrency execution backend of the runtime
// seam (internal/rt): it runs the same leader-election algorithms as the
// deterministic discrete-event kernel (internal/sim + internal/quorum), but
// on real OS-scheduled goroutines with channel-backed best-effort sends
// and majority-quorum collect.
//
// Where the sim backend hands every interleaving decision to a strong
// adaptive adversary and measures virtual time, the live backend lets the Go
// scheduler interleave n server goroutines and k participant goroutines for
// real, and measures wall-clock time. The paper's safety guarantees (unique
// winner, at least one sift survivor) hold under *any* schedule, so they
// must — and do — survive genuine hardware contention; the conformance
// suite checks exactly that, under the race detector.
//
// # Topology
//
// Every processor runs a server goroutine draining a buffered mailbox of
// quorum requests (the reactive half — the paper's standing assumption that
// all processors always reply), and a participant goroutine, parked on its
// task channel until a run hands it the algorithm (the active half; a run
// of k participants hands tasks to the first k). A participant issues
// communicate calls through Comm: a request goes to
// peers' mailboxes and the caller blocks until ⌊n/2⌋+1 processors (itself
// included) have answered, so any two communicate calls intersect — the
// quorum property every proof in the paper relies on. Which peers are asked
// sits below that and follows the call schedule shared with electd
// (rt.Schedule): exactly the quorum it needs among its right-hand
// neighbours first, everyone who has not answered after a tick without a
// quorum — the system's RTT estimate, not a fixed constant — and everyone
// at once on the next call, whose quorum the waves after it keep to. The
// servers deliver their replies to the caller's rt.Tally — the one reply
// count electd's client uses too — and the reply that completes the quorum
// wakes the caller once; replies beyond the quorum find the call complete
// or another call open and are refused unread, naturally reproducing the
// stale-view behaviour the adversary model abstracts.
//
// A processor's register arrays — what a propagate merges into and a collect
// reads — are one regstore.Store, shared by its server goroutine and its
// algorithm goroutine without a lock (internal/regstore, whose package
// comment is the memory-order argument, including why a cell may adopt a
// pointer into the caller's propagate payload).
//
// # Fault and latency injection
//
// The model's remaining adversarial powers — delaying messages arbitrarily
// and crashing up to ⌈n/2⌉−1 processors — are recovered through the
// scenario engine (internal/fault). Config.Scenario materializes into a
// per-run plan, and the plan into one fault.Profile per participant, which
// the run hands to whichever client it takes — the processor's own handle
// on chan, electd's Cluster.NewComm on tcp/udp — so both substrates inject it
// through the same hooks, without touching algorithm code:
//
//   - message delays (link distributions, slow-processor taxes, reorder
//     jitter) are sampled on the sending side and ride helper goroutines,
//     so one slow link never stalls the rest of a wave, and Shutdown
//     waits for stragglers before closing mailboxes;
//   - a crashed processor's server keeps draining its mailbox but drops
//     every request unanswered (messages to the dead are lost, senders
//     never block), and its algorithm goroutine is unwound by a recovered
//     panic at its next backend interaction;
//   - quorum liveness is preserved by construction: with at most ⌈n/2⌉−1
//     crashes, every communicate call still assembles its ⌊n/2⌋+1
//     acknowledgments from the survivors — after one tick (the system's
//     RTT estimate, rt.WidenAfter while it is cold) for a processor whose
//     exact first wave the crashes left short: nothing tells it a peer is
//     dead, so it finds out once, asks everyone on its next call, and
//     passes the silent peers over from then on.
//
// Crashed participants appear in Result.Crashed rather than Decisions; an
// election whose every survivor lost is reported with Winner == -1 — the
// linearized winner died holding the election, exactly the outcome Theorem
// A.5 permits.
//
// # System recycling
//
// High-throughput callers (the campaign engine) recycle whole systems
// through SystemPool instead of building and shutting down a System per run:
// server goroutines park on their empty mailboxes between runs and
// participant goroutines on their task channels, and checkout
// re-keys PRNG streams (each seeded at its first draw) and resets register
// arrays, counters and crash flags in place — indistinguishable from a fresh
// construction, including for runs with
// crash plans (a crashed slot here is only a dropped flag; its serve loop
// never exited). Config.Pool opts a run in. So a parked n-processor chan
// system keeps 2n goroutines (n on a networked one, which has no servers),
// n register stores, n communicate handles and n core.States, and holds
// none of its last election's state. Every run, pooled or not, hands its
// participants their processors' own parts rather than new ones: the
// parked goroutine, which records how its task ended on the processor and
// is joined through one WaitGroup; the processor's core.State, reset to
// what core.NewState builds but keeping its sifting table and the register
// names of the instance it last ran (core.Names); and on chan the
// processor's communicate handle, reset to what NewComm builds but keeping
// its tally's arrays, views arena and tick timer, its call ordinals running
// on across runs so that a straggler of an earlier run never counts in a
// later one. A run reads what it reports from the States before the system
// can be checked out again. Only the system's RTT estimate carries over on
// purpose.
package live
