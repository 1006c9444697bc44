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
// all processors always reply). Participants additionally run an algorithm
// goroutine that issues communicate calls through Comm: a request goes to
// peers' mailboxes and the caller blocks until ⌊n/2⌋+1 processors (itself
// included) have answered, so any two communicate calls intersect — the
// quorum property every proof in the paper relies on. Which peers are asked
// sits below that and follows the call schedule shared with electd
// (rt.Schedule): the quorum it needs plus two spares among its right-hand
// neighbours first, everyone who has not answered after a tick without a
// quorum, and everyone at once from then on. The servers assemble the
// quorum on the caller's call slot and wake it once, when it is complete;
// replies beyond the quorum find the slot complete or closed and are
// refused unread, naturally reproducing the stale-view behaviour the
// adversary model abstracts.
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
// the run hands to whichever client it builds — NewComm on chan,
// electd's Cluster.NewComm on tcp/udp — so both substrates inject it
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
//     acknowledgments from the survivors — after one tick (rt.WidenAfter)
//     for a processor whose first wave the crashes left short: nothing
//     tells it a peer is dead, so it finds out once, then asks everyone.
//
// Crashed participants appear in Result.Crashed rather than Decisions; an
// election whose every survivor lost is reported with Winner == -1 — the
// linearized winner died holding the election, exactly the outcome Theorem
// A.5 permits.
//
// # System recycling
//
// High-throughput callers (the campaign engine) recycle whole systems
// through SystemPool instead of paying NewSystem/Shutdown per run: server
// goroutines park on their empty mailboxes between runs, and checkout
// resets PRNG streams, register arrays, counters and crash flags in place
// — indistinguishable from a fresh construction, including for runs with
// crash plans (a crashed slot here is only a dropped flag; its serve loop
// never exited). Config.Pool opts a run in.
package live
