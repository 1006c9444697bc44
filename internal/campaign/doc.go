// Package campaign is the parallel campaign engine: it fans thousands of
// independent live elections (live.Elect) across a pool of workers and
// aggregates wall-clock latency percentiles and throughput. A campaign
// answers the production question the single-run harnesses cannot: how
// many elections per second does the machine sustain, and what does the
// latency tail look like, for a given algorithm, system size and
// transport? The paper's model itself — the sim kernel under adversary
// schedules — is cmd/reproduce's and repro.Elect's business, not a
// campaign's.
//
// Runs are independent by construction — each gets its own goroutine set
// and a sharded PRNG seed — but a live election is internally concurrent,
// so the sweet spot is fewer workers at larger n. Campaigns do not build a
// goroutine system per run: workers check processor sets out of a shared
// live.SystemPool (reset in place, mailbox goroutines parked between
// runs), and TCP campaigns multiplex every election onto one shared,
// shard-locked electd cluster — so the marginal election costs its
// protocol work, not its setup.
//
// # Scenario matrices
//
// RunMatrix crosses a list of fault/latency scenarios (internal/fault) with
// the campaign's seed set and fans every (scenario, seed) cell across the
// same shared worker pool, so the matrix finishes in one pool-saturating
// pass rather than scenario by scenario. Each scenario row reports its own
// latency percentiles, the paper's time metric, and election-validity
// counts: how many runs elected a unique surviving winner, how many ended
// winnerless because the linearized winner crashed, and how many
// participants the crash schedules killed in total. Run is the
// single-scenario special case (Config.Scenario; the zero value is
// fault-free).
//
// # One verdict
//
// Every run completes and is judged by one function against the paper's
// test-and-set contract and the run's fault plan. A row counts its invalid
// runs and lists their violations; a campaign with any returns its
// complete report and an error wrapping ErrInvalidRuns.
package campaign
