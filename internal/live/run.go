package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/fault"
	"repro/internal/regstore"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Algorithm selects the protocol a live run executes. The values match the
// expt harness's names so configurations translate across backends.
type Algorithm string

// Algorithms understood by the live runners.
const (
	// AlgoPoisonPill is the paper's O(log* k) election (Figure 6).
	AlgoPoisonPill Algorithm = "poisonpill"
	// AlgoTournament is the Θ(log n) tournament baseline of [AGTV92].
	AlgoTournament Algorithm = "tournament"
	// AlgoBasicSift is one standalone basic PoisonPill round (Figure 1).
	AlgoBasicSift Algorithm = "basic-sift"
	// AlgoHetSift is one standalone heterogeneous round (Figure 2).
	AlgoHetSift Algorithm = "het-sift"
)

// Transport selects the comm substrate a live run's quorum traffic crosses.
type Transport string

// Transports understood by the live runners.
const (
	// TransportChan is the in-process substrate: server-goroutine mailboxes
	// and channel broadcast (the default).
	TransportChan Transport = "chan"
	// TransportTCP routes every communicate call through electd servers
	// over loopback TCP sockets: real network boundary, kernel scheduling,
	// wire-codec frames. Algorithms run unchanged behind rt.Comm.
	TransportTCP Transport = "tcp"
	// TransportUDP routes quorum traffic through electd servers over
	// loopback UDP datagrams: the same wire frames, packed MTU-bounded into
	// datagrams, one datagram per syscall, with the client pool's default
	// retransmit-and-dedup as the reliability layer (strictly below the
	// quorum semantics — see electd.PoolOptions.Retransmit).
	TransportUDP Transport = "udp"
)

// Networked reports whether the transport crosses real sockets through an
// electd cluster (TCP or UDP), as opposed to the in-process chan substrate.
func (t Transport) Networked() bool { return t == TransportTCP || t == TransportUDP }

// Config parameterises one live run.
type Config struct {
	// N is the system size; K the number of participants (0 means K = N).
	N, K int
	// Seed shards the per-processor PRNG streams; equal seeds give equal
	// coin-flip sequences (the interleaving still varies run to run — that
	// is the point of the backend).
	Seed int64
	// Algorithm picks the protocol. Default AlgoPoisonPill.
	Algorithm Algorithm
	// Scenario injects faults and latency into the run: crash schedules,
	// per-link delay distributions, slow processors, reordering. The zero
	// value is fault-free. See internal/fault.
	Scenario fault.Scenario
	// Transport picks the comm substrate: TransportChan (default),
	// TransportTCP or TransportUDP.
	Transport Transport
	// Cluster (networked transports only) reuses an already-running electd
	// server set instead of building one per run; the run then multiplexes
	// onto it under ElectionID. Crash scenarios are rejected with a shared
	// cluster — they would fail servers other elections depend on.
	Cluster *electd.Cluster
	// ElectionID namespaces this run's register state on a shared Cluster.
	// Ignored (an owned cluster hosts exactly one election) otherwise.
	ElectionID uint64
	// Pool recycles whole Systems across runs instead of building and
	// tearing one down per run — the campaign engine's high-throughput
	// path. The pool's size and substrate shape must match the run (N and
	// Transport); runs with crash scenarios are supported, the checked-out
	// system is always reset to construction state. Nil builds a fresh
	// system per run, as before.
	Pool *SystemPool
	// Trace, when non-nil, is the election flight recorder: the run's
	// client, transport and server layers record per-phase spans into it
	// (see internal/trace). On an owned TCP cluster the recorder is
	// threaded through the pool, the servers and the network (enabling
	// wire stamping); on a shared Cluster the cluster's own options
	// govern the pool/server/transport layers and only the chan-side or
	// round attribution here applies. Nil — the default — leaves every
	// hot path untraced and byte- and alloc-identical to before tracing
	// existed.
	Trace *trace.Recorder
}

// DefaultTimeout bounds every live run. The algorithms terminate with
// probability 1 in milliseconds at benchmark sizes; a run hitting this bound
// indicates a liveness bug. A fired timeout reports an error and leaks the
// run's goroutines: it is a diagnostic, not a control path.
const DefaultTimeout = 2 * time.Minute

// ErrTimeout is returned when a live run exceeds its timeout.
var ErrTimeout = errors.New("live: run timed out (liveness bug?)")

// Result reports one live run.
type Result struct {
	// Winner is the elected processor; -1 for sift algorithms, and for
	// elections in which every potential winner crashed (possible only
	// under a crash scenario).
	Winner rt.ProcID
	// Decisions maps every returning participant to WIN/LOSE (election
	// algorithms). Participants crashed by the scenario do not return and
	// are listed in Crashed instead.
	Decisions map[rt.ProcID]core.Decision
	// Outcomes maps every returning participant to SURVIVE/DIE (sift
	// algorithms).
	Outcomes map[rt.ProcID]core.Outcome
	// Crashed lists the participants the scenario killed mid-protocol, in
	// id order. Crashed non-participants (silent servers) are not listed:
	// they affect only message loss, not decisions.
	Crashed []rt.ProcID
	// NoQuorum lists the participants that aborted with a typed
	// fault.NoQuorumError: a quorum call of theirs gave up on what it
	// observed (rt.Schedule.Wait), not on word from the plan. From the
	// protocol's perspective an aborted participant is a crash — it
	// vanishes mid-election and the safety argument is unchanged — but the
	// runner reports the two causes apart, and the verdict checks every
	// abort against the plan: an electable participant here
	// (fault.Plan.Electable) makes the run invalid.
	NoQuorum []rt.ProcID
	// Rounds is the highest election round any participant reached.
	Rounds int
	// Time is the maximum number of communicate calls any processor made —
	// the paper's time metric, comparable with the sim backend's.
	Time int
	// Messages is the total number of point-to-point messages exchanged.
	Messages int64
	// Bytes is the total wire-codec payload size of those messages — the
	// exact internal/wire frame-body bytes, comparable with the sim
	// backend's PayloadBytes statistic. On a shared TCP cluster it counts
	// only this run's traffic.
	Bytes int64
	// Elapsed is the run's wall-clock duration.
	Elapsed time.Duration
}

func (cfg *Config) normalize() error {
	if cfg.N < 1 {
		return fmt.Errorf("live: system size %d must be at least 1", cfg.N)
	}
	if cfg.N > regstore.MaxOwners {
		return fmt.Errorf("live: system size %d exceeds the register store's %d owners", cfg.N, regstore.MaxOwners)
	}
	if cfg.K == 0 {
		cfg.K = cfg.N
	}
	if cfg.K < 1 || cfg.K > cfg.N {
		return fmt.Errorf("live: participants %d must be in [1, %d]", cfg.K, cfg.N)
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = AlgoPoisonPill
	}
	if err := cfg.Scenario.Validate(cfg.N); err != nil {
		return err
	}
	switch cfg.Transport {
	case "":
		cfg.Transport = TransportChan
	case TransportChan, TransportTCP, TransportUDP:
	default:
		return fmt.Errorf("live: unknown transport %q", cfg.Transport)
	}
	if !cfg.Transport.Networked() {
		if cfg.Cluster != nil {
			return fmt.Errorf("live: an electd cluster requires a networked transport (tcp or udp)")
		}
		if cfg.ElectionID != 0 {
			return fmt.Errorf("live: election IDs exist only on networked transports")
		}
	} else if cfg.Cluster != nil {
		if cfg.Cluster.N() != cfg.N {
			return fmt.Errorf("live: shared cluster has %d servers, run wants n=%d", cfg.Cluster.N(), cfg.N)
		}
		if cfg.Scenario.Active() && !cfg.Scenario.LinkOnly() {
			return fmt.Errorf("live: scenario %q cannot run on a shared cluster (crash faults would fail servers other elections depend on); omit Cluster", cfg.Scenario.Name)
		}
	}
	if cfg.Pool != nil {
		if cfg.Pool.N() != cfg.N {
			return fmt.Errorf("live: system pool holds %d-processor systems, run wants n=%d", cfg.Pool.N(), cfg.N)
		}
		if want := !cfg.Transport.Networked(); cfg.Pool.Serving() != want {
			return fmt.Errorf("live: system pool serving=%v does not match transport %q", cfg.Pool.Serving(), cfg.Transport)
		}
	}
	return nil
}

// Elect runs one leader election on real goroutines and returns the winner
// and complexity measures. Exactly one participant wins; every other
// returns LOSE — under any interleaving the Go scheduler produces. A run
// that core.JudgeElection rejects is an error.
func Elect(cfg Config) (Result, error) {
	if err := cfg.normalize(); err != nil {
		return Result{}, err
	}
	var body func(c rt.Comm, s *core.State) core.Decision
	switch cfg.Algorithm {
	case AlgoPoisonPill:
		body = func(c rt.Comm, s *core.State) core.Decision {
			return core.LeaderElectWithState(c, "elect", s)
		}
	case AlgoTournament:
		body = func(c rt.Comm, s *core.State) core.Decision {
			return baseline.TournamentWithState(c, "tourn", s)
		}
	default:
		return Result{}, fmt.Errorf("live: %q is not an election algorithm", cfg.Algorithm)
	}

	decisions := make([]core.Decision, cfg.K)
	res, err := run(cfg, func(c rt.Comm, s *core.State, i int) {
		decisions[i] = body(c, s)
	})
	if err != nil {
		return res, err
	}

	res.Decisions = make(map[rt.ProcID]core.Decision, cfg.K)
	for i, d := range decisions {
		res.Decisions[rt.ProcID(i)] = d
	}
	dropGone(res.Decisions, &res)
	// With a participant gone, the election may have no winner: the
	// linearized winner may be the one that vanished before returning
	// (Theorem A.5 — the election is a test-and-set, and an abort is a
	// crash from the protocol's perspective).
	res.Winner, err = core.JudgeElection(cfg.K, res.Decisions)
	if err != nil {
		return res, fmt.Errorf("live: %w", err)
	}
	return res, nil
}

// Sift runs one standalone sifting round (AlgoBasicSift or AlgoHetSift) on
// real goroutines. At least one participant always survives; a run that
// core.JudgeSift rejects is an error.
func Sift(cfg Config) (Result, error) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = AlgoBasicSift
	}
	if err := cfg.normalize(); err != nil {
		return Result{}, err
	}
	var body func(c rt.Comm, s *core.State) core.Outcome
	switch cfg.Algorithm {
	case AlgoBasicSift:
		body = func(c rt.Comm, s *core.State) core.Outcome {
			return core.PoisonPill(c, "pp", s)
		}
	case AlgoHetSift:
		body = func(c rt.Comm, s *core.State) core.Outcome {
			return core.HetPoisonPill(c, "pp", s)
		}
	default:
		return Result{}, fmt.Errorf("live: %q is not a sifting algorithm", cfg.Algorithm)
	}

	outcomes := make([]core.Outcome, cfg.K)
	res, err := run(cfg, func(c rt.Comm, s *core.State, i int) {
		outcomes[i] = body(c, s)
	})
	if err != nil {
		return res, err
	}

	res.Winner = -1
	res.Outcomes = make(map[rt.ProcID]core.Outcome, cfg.K)
	for i, o := range outcomes {
		res.Outcomes[rt.ProcID(i)] = o
	}
	dropGone(res.Outcomes, &res)
	// Claim 3.1 guarantees a survivor only when every participant returns.
	if _, err := core.JudgeSift(cfg.K, res.Outcomes); err != nil {
		return res, fmt.Errorf("live: %w", err)
	}
	return res, nil
}

// dropGone deletes from m the participants the run crashed or starved:
// they returned nothing.
func dropGone[V any](m map[rt.ProcID]V, res *Result) {
	for _, id := range res.Crashed {
		delete(m, id)
	}
	for _, id := range res.NoQuorum {
		delete(m, id)
	}
}

// task is one run's work for a parked participant goroutine: algo, to run
// on comm with the processor's State, and on a networked run the electd
// client behind comm, which the participant leaves once it makes no
// further call.
type task struct {
	algo   func(c rt.Comm, s *core.State, i int)
	comm   rt.Comm
	client *electd.Client
}

// ending is how a participant's task ended.
type ending uint8

const (
	returned ending = iota // algo returned a decision or outcome
	crashed                // the scenario crashed the participant (crashSignal)
	starved                // a quorum call gave up (fault.NoQuorumError)
)

// participate is the participant goroutine: parked on its task channel
// between runs, it performs each task it is handed, records how it ended on
// the processor and counts it done on sys.running, until Shutdown closes
// the channel.
func (p *Proc) participate() {
	defer p.sys.parked.Done()
	for t := range p.tasks {
		p.end = p.perform(t)
		p.sys.running.Done()
	}
}

// perform runs one task, turning the crash and starvation unwinds into
// their endings; any other panic is a bug and propagates.
func (p *Proc) perform(t task) (end ending) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case crashSignal:
				end = crashed
			case *fault.NoQuorumError:
				end = starved
			default:
				panic(r)
			}
		}
	}()
	if t.client != nil {
		// Its cohort's held requests must not wait for a participant that
		// makes no further call, whatever way it ends.
		defer t.client.Leave()
	}
	t.algo(t.comm, p.state, int(p.id))
	return returned
}

// run builds a system (materializing the scenario's fault plan, if any),
// executes algo on the first K processors concurrently — each processor's
// parked participant goroutine, handed its comm and its processor's State
// reset for the run — joins them, shuts the substrate down or parks it
// again, and reports the shared measures, Rounds included — read from the
// States before the system goes back to the pool, where the next checkout
// resets them.
//
// On TransportChan the quorum runs over the in-process server goroutines;
// on TransportTCP it runs over an electd cluster — cfg.Cluster when shared,
// otherwise a cluster of n loopback-TCP servers owned by this run — with
// crashes dropping the victim's server connections. Either client takes the
// participant's fault.Profile at construction, and the plan reaches the
// quorum traffic through that alone. Scenario crashes are
// armed as wall-clock timers when the algorithms start; a crashed
// participant's goroutine unwinds via crashSignal and is recorded in
// Result.Crashed. The timeout path leaves the run's participants running
// and the system neither shut down nor pooled, by design: there is no safe
// way to interrupt them, and the caller is about to fail anyway.
func run(cfg Config, algo func(c rt.Comm, s *core.State, i int)) (Result, error) {
	plan, err := cfg.Scenario.Plan(cfg.N, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	var sys *System
	if cfg.Pool != nil {
		sys = cfg.Pool.Get(cfg.Seed, plan)
	} else {
		sys = newSystem(cfg.N, cfg.Seed, plan, !cfg.Transport.Networked())
	}
	// Installed before any algorithm goroutine starts (pooled systems
	// carry the previous run's recorder otherwise). The chan substrate
	// and traced owned TCP clusters have no protocol-level election ID,
	// so their spans carry a seed-derived odd tag — nonzero, and never
	// colliding with the counter-issued IDs of shared TCP clusters for
	// realistic campaign sizes.
	sys.rec = cfg.Trace
	sys.traceID = uint64(cfg.Seed)*2 + 1
	if cfg.Transport.Networked() && (cfg.Cluster != nil || cfg.ElectionID != 0) {
		sys.traceID = cfg.ElectionID
	}

	var cluster *electd.Cluster
	var clients []*electd.Client
	var election uint64
	if cfg.Transport.Networked() {
		cluster = cfg.Cluster
		election = cfg.ElectionID
		if cluster == nil && cfg.Trace != nil && election == 0 {
			// An owned cluster hosts exactly one election, so ID 0 works on
			// the wire — but spans keyed by election 0 cannot be grouped per
			// election in the breakdown. Tag traced owned-cluster runs with
			// the same seed-derived odd ID the chan substrate uses; the
			// namespace is private to this cluster, and untraced runs keep
			// ID 0 so their frames stay byte-identical.
			election = sys.traceID
		}
		if cluster == nil {
			spec := transport.Spec{Name: string(cfg.Transport), Trace: cfg.Trace}
			cluster, err = electd.NewClusterSpec(spec, cfg.N, electd.ClusterOptions{
				Server: electd.ServerOptions{Trace: cfg.Trace},
			})
			if err != nil {
				if cfg.Pool != nil {
					cfg.Pool.Put(sys) // nothing ran; the system is clean
				}
				return Result{}, fmt.Errorf("live: start electd cluster: %w", err)
			}
			defer cluster.Close()
		}
		clients = make([]*electd.Client, cfg.K)
	}

	// Each participant's fault hooks reach its client through one profile
	// (nil on a fault-free run).
	comms := make([]rt.Comm, cfg.K)
	for i := 0; i < cfg.K; i++ {
		p := sys.procs[i]
		fp := sys.profile(i)
		if clients != nil {
			clients[i] = cluster.NewComm(p, election, fp)
			comms[i] = clients[i]
		} else {
			comms[i] = p.checkout(fp)
		}
		s := p.checkoutState(string(cfg.Algorithm))
		if cfg.Trace != nil {
			// Round transitions stamp the comm's subsequent spans; both
			// substrates' handles expose SetRound through the wrapper.
			if rs, ok := comms[i].(interface{ SetRound(int) }); ok {
				s.RoundHook = rs.SetRound
			}
		}
	}

	start := time.Now()
	sys.StartClock(start)
	// Crash timers race run completion: a timer that fires between the last
	// decision and its Stop call must not mutate the system — with pooling
	// it may already be hosting someone else's run. The guard mutex plus
	// the finished flag make "the run is over" and "the crash lands"
	// mutually exclusive.
	var crashMu sync.Mutex
	finished := false
	if plan != nil {
		timers := make([]*time.Timer, 0, len(plan.Crashes))
		var rejoins []*time.Timer // armed by the crash callbacks, under crashMu
		rejoin := func(id rt.ProcID) {
			crashMu.Lock()
			defer crashMu.Unlock()
			if finished {
				return
			}
			// Only the replica half rejoins: the crashed participant's
			// goroutine has unwound and stays gone; what recovers is the
			// quorum member. On TCP that is the full Restart sequence —
			// replica, listener, pool redial; a failed rebind is the
			// recovery itself failing, which the model treats as the
			// replica staying down.
			if cluster != nil {
				cluster.Restart(id) //nolint:errcheck // best-effort rejoin
			} else {
				sys.Recover(id)
			}
		}
		for _, cr := range plan.Crashes {
			id := rt.ProcID(cr.Proc)
			timers = append(timers, time.AfterFunc(cr.At, func() {
				crashMu.Lock()
				defer crashMu.Unlock()
				if finished {
					return // the run outlived this crash; it didn't happen
				}
				sys.Crash(id)
				if cluster != nil {
					// An owned cluster pairs server i with processor i, so a
					// crash fails both halves, as on the chan substrate.
					// (Shared clusters admit only link faults at normalize.)
					cluster.Crash(id)
				}
				// The rejoin is armed behind its crash, at the planned time
				// on the fault clock, so it can never run first.
				if at, ok := plan.RecoveryOf(int(id)); ok {
					rejoins = append(rejoins, time.AfterFunc(at-sys.elapsed(), func() { rejoin(id) }))
				}
			}))
		}
		// Pending crashes are cancelled once the run completes: a crash
		// scheduled after the last decision didn't happen, as far as the
		// run's results are concerned. Same for recoveries.
		defer func() {
			crashMu.Lock()
			finished = true
			timers = append(timers, rejoins...)
			crashMu.Unlock()
			for _, t := range timers {
				t.Stop()
			}
		}()
	}
	sys.running.Add(cfg.K)
	for i := 0; i < cfg.K; i++ {
		t := task{algo: algo, comm: comms[i]}
		if clients != nil {
			t.client = clients[i]
		}
		sys.procs[i].tasks <- t
	}

	done := make(chan struct{})
	go func() {
		sys.running.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(DefaultTimeout):
		return Result{}, fmt.Errorf("%w after %v (n=%d k=%d algorithm=%s transport=%s scenario=%q)",
			ErrTimeout, DefaultTimeout, cfg.N, cfg.K, cfg.Algorithm, cfg.Transport, cfg.Scenario.Name)
	}
	elapsed := time.Since(start)
	crashMu.Lock()
	finished = true // late-firing crash timers are now no-ops
	crashMu.Unlock()
	if cfg.Pool != nil {
		// Pooled systems stay alive: wait out in-flight mailbox traffic so
		// the counters below are final, return the system after the results
		// have been read from it.
		sys.quiesce()
	} else {
		sys.Shutdown()
	}

	res := Result{Elapsed: elapsed, Messages: sys.Messages(), Bytes: sys.Bytes()}
	if clients != nil {
		// TCP traffic is booked per participant, so a shared cluster still
		// reports this run's own messages and bytes.
		res.Messages, res.Bytes = 0, 0
		for _, cl := range clients {
			res.Messages += cl.Messages()
			res.Bytes += cl.Bytes()
			res.Time = max(res.Time, cl.Calls())
		}
	}
	for _, p := range sys.procs[:cfg.K] {
		switch p.end {
		case crashed:
			res.Crashed = append(res.Crashed, p.id)
		case starved:
			res.NoQuorum = append(res.NoQuorum, p.id)
		}
		res.Time = max(res.Time, p.CommCalls()) // the chan Comm's count; 0 on tcp/udp
		res.Rounds = max(res.Rounds, p.state.Round)
	}
	if cfg.Pool != nil {
		cfg.Pool.Put(sys)
	}
	return res, nil
}
