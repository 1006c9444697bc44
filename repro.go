// Package repro is a from-scratch Go reproduction of
//
//	Dan Alistarh, Rati Gelashvili, Adrian Vladu.
//	"How to Elect a Leader Faster than a Tournament." PODC 2015.
//
// It provides the paper's O(log* k)-time, O(kn)-message randomized leader
// election (the PoisonPill construction), the O(log² n)-time, O(n²)-message
// strong renaming built on it, the Θ(log n) tournament baseline it improves
// upon, and the asynchronous message-passing model with a strong adaptive
// adversary that all of them are defined against — implemented as a
// deterministic discrete-event simulation.
//
// This package is the stable entry point: configure a run with functional
// options and execute it.
//
//	res, err := repro.Elect(repro.WithN(64), repro.WithSeed(1))
//	if err != nil { ... }
//	fmt.Println("winner:", res.Winner, "time:", res.Time)
//
// The underlying pieces (kernel, quorum layer, algorithms, adversary
// strategies, experiment harness) live in internal/ packages; examples/ and
// cmd/ show them in use.
package repro

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/regstore"
	"repro/internal/sim"
)

// Algorithm selects a leader-election protocol.
type Algorithm = expt.Algorithm

// Leader-election algorithm choices.
const (
	// PoisonPill is the paper's O(log* k) election (default).
	PoisonPill = expt.AlgoPoisonPill
	// Tournament is the Θ(log n) baseline of [AGTV92].
	Tournament = expt.AlgoTournament
)

// Schedule selects the adversary strategy that drives the run.
type Schedule = expt.Schedule

// Adversary schedule choices.
const (
	// Fair delivers and schedules at random (benign asynchrony, default).
	Fair = expt.SchedFair
	// LockStep is a deterministic synchronous-like schedule.
	LockStep = expt.SchedLockStep
	// Sequential runs participants one at a time (Section 3.2's schedule).
	Sequential = expt.SchedSequential
	// SequentialRounds is the per-round sequential schedule.
	SequentialRounds = expt.SchedSeqRounds
	// FlipAware completes 0-flippers before any 1-flipper is visible
	// (Section 1's attack on naive sifting).
	FlipAware = expt.SchedFlipAware
	// Crashing crashes up to the configured number of participants.
	Crashing = expt.SchedCrash
	// Bubble is the Theorem B.2 lower-bound construction.
	Bubble = expt.SchedBubble
	// StaleViews starves half the system of updates (renaming skew).
	StaleViews = expt.SchedStaleViews
)

// Backend selects the execution backend a run executes on.
type Backend string

// Execution backend choices.
const (
	// Sim is the deterministic discrete-event kernel with a strong adaptive
	// adversary — the paper's model, exactly (default). Time is virtual.
	Sim Backend = "sim"
	// Live runs the same algorithms on real OS-scheduled goroutines with
	// channel-backed quorums: wall-clock time, genuine contention, no
	// adversary control. Safety properties hold on both backends. The comm
	// substrate is orthogonal — pick it with WithTransport (ChanTransport,
	// TCPTransport or UDPTransport).
	Live Backend = "live"
)

// Transport selects the Live backend's comm substrate (see internal/live
// and the wire/transport/electd packages).
type Transport = live.Transport

// Live-backend transport choices.
const (
	// ChanTransport is the in-process substrate: server-goroutine mailboxes
	// and channel broadcast (default).
	ChanTransport = live.TransportChan
	// TCPTransport routes quorum traffic through electd servers over
	// loopback TCP: a real network boundary under the same algorithms.
	TCPTransport = live.TransportTCP
	// UDPTransport routes quorum traffic through electd servers over
	// loopback UDP datagrams: the same wire frames packed MTU-bounded into
	// datagrams, one datagram per syscall, and the client pool's
	// retransmit-and-dedup as the reliability layer, strictly below the
	// quorum semantics.
	UDPTransport = live.TransportUDP
)

// config collects the run parameters; zero values select defaults.
type config struct {
	n, k          int
	seed          int64
	algorithm     Algorithm
	schedule      Schedule
	backend       Backend
	transport     Transport
	faults        int
	budget        int64
	scenario      string
	runs, workers int
}

// Option configures a run.
type Option func(*config)

// WithN sets the system size (total processors). Default 16.
func WithN(n int) Option { return func(c *config) { c.n = n } }

// WithParticipants sets the number of protocol participants k ≤ n; the
// remaining processors only acknowledge messages. Default: k = n.
func WithParticipants(k int) Option { return func(c *config) { c.k = k } }

// WithSeed fixes the run's randomness; equal seeds give identical runs.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithAlgorithm selects PoisonPill (default) or Tournament for Elect.
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algorithm = a } }

// WithSchedule selects the adversary strategy. Default Fair. Adversary
// schedules exist only on the Sim backend.
func WithSchedule(s Schedule) Option { return func(c *config) { c.schedule = s } }

// WithBackend selects the execution backend: Sim (default) or Live.
func WithBackend(b Backend) Option { return func(c *config) { c.backend = b } }

// WithTransport selects the Live backend's comm substrate: ChanTransport
// (default), TCPTransport or UDPTransport. Requires WithBackend(Live).
func WithTransport(t Transport) Option { return func(c *config) { c.transport = t } }

// WithFaults sets the crash budget used by the Crashing schedule.
func WithFaults(f int) Option { return func(c *config) { c.faults = f } }

// WithBudget overrides the kernel's action budget (safety bound on run
// length).
func WithBudget(b int64) Option { return func(c *config) { c.budget = b } }

// WithScenario injects a named fault/latency scenario into Live-backend
// runs: crash schedules, per-link delay distributions, slow processors,
// message reordering. Scenarios() lists the names. Requires
// WithBackend(Live).
func WithScenario(name string) Option { return func(c *config) { c.scenario = name } }

// WithRuns sets the number of elections a Campaign executes. Default 128.
func WithRuns(r int) Option { return func(c *config) { c.runs = r } }

// WithWorkers sets a Campaign's worker-pool size. Default: GOMAXPROCS.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// Scenarios lists the named fault/latency scenarios WithScenario accepts,
// fault-free "baseline" first.
func Scenarios() []string { return fault.Names() }

func buildConfig(opts []Option) config {
	c := config{n: 16, schedule: Fair, algorithm: PoisonPill, backend: Sim}
	for _, o := range opts {
		o(&c)
	}
	if c.k == 0 {
		c.k = c.n
	}
	return c
}

func (c config) validate() error {
	if c.n < 1 {
		return fmt.Errorf("repro: system size %d must be at least 1", c.n)
	}
	if c.n > regstore.MaxOwners {
		return fmt.Errorf("repro: system size %d exceeds the register store's %d owners", c.n, regstore.MaxOwners)
	}
	if c.k < 1 || c.k > c.n {
		return fmt.Errorf("repro: participants %d must be in [1, %d]", c.k, c.n)
	}
	switch c.backend {
	case Sim, Live:
	default:
		return fmt.Errorf("repro: unknown backend %q", c.backend)
	}
	if c.transport != "" && c.backend != Live {
		return fmt.Errorf("repro: transport %q requires the Live backend (the Sim kernel has no network)", c.transport)
	}
	switch c.transport {
	case "", ChanTransport, TCPTransport, UDPTransport:
	default:
		return fmt.Errorf("repro: unknown transport %q", c.transport)
	}
	if c.backend == Live {
		if c.schedule != Fair {
			return fmt.Errorf("repro: schedule %q requires the Sim backend (the Live backend has no adversary)", c.schedule)
		}
		if c.faults > 0 {
			return fmt.Errorf("repro: crash faults require the Sim backend (for Live crash scenarios use WithScenario)")
		}
		if c.budget > 0 {
			return fmt.Errorf("repro: the action budget is a Sim kernel bound; Live runs are bounded by a wall-clock timeout")
		}
	}
	if c.scenario != "" && c.backend != Live {
		return fmt.Errorf("repro: scenario %q requires the Live backend (Sim runs are driven by adversary schedules)", c.scenario)
	}
	return nil
}

// resolveScenario maps the configured scenario name to its fault.Scenario
// (the zero, fault-free scenario when unset).
func (c config) resolveScenario() (fault.Scenario, error) {
	if c.scenario == "" {
		return fault.Scenario{}, nil
	}
	sc, ok := fault.Lookup(c.scenario)
	if !ok {
		return fault.Scenario{}, fmt.Errorf("repro: unknown scenario %q (available: %s)",
			c.scenario, strings.Join(fault.Names(), ", "))
	}
	return sc, nil
}

// ErrNoWinner is returned by Elect when every potential winner crashed
// before deciding — possible under the Sim backend's Crashing schedule and
// under Live-backend crash scenarios (WithScenario). It reports a
// legitimate fault-model outcome, not a safety violation: the linearized
// winner died holding the election, and every survivor correctly lost.
var ErrNoWinner = errors.New("repro: all potential winners crashed before deciding")

// ElectionResult reports one leader-election run.
type ElectionResult struct {
	// Winner is the elected processor.
	Winner sim.ProcID
	// Decisions maps every returning participant to WIN/LOSE.
	Decisions map[sim.ProcID]core.Decision
	// Crashed lists participants killed mid-protocol by a WithScenario
	// crash schedule (Live backend), in id order.
	Crashed []sim.ProcID
	// Time is the maximum number of communicate calls any processor made —
	// the paper's time metric (Claim 2.1).
	Time int
	// Messages is the total number of point-to-point messages sent.
	Messages int64
	// PayloadBytes is the total wire-codec payload size of those messages —
	// the exact internal/wire frame-body accounting, consistent across the
	// Sim kernel (Stats.PayloadBytes), the Live chan substrate and the TCP
	// transport.
	PayloadBytes int64
	// Rounds is the highest election round reached.
	Rounds int
	// Stats exposes the full kernel statistics.
	Stats sim.Stats
}

// Elect runs one leader election and returns the winner and complexity
// measures. Exactly one participant wins; every other returns LOSE.
//
// On the Live backend (WithBackend(Live)) the election runs on real
// goroutines: Time and Messages keep their meanings, Stats stays zero
// (there is no kernel), and results vary with the OS schedule — only the
// winner's uniqueness is deterministic.
func Elect(opts ...Option) (ElectionResult, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return ElectionResult{}, err
	}
	if c.backend == Live {
		return electLive(c)
	}
	r := expt.Run(expt.Config{
		N: c.n, K: c.k, Seed: c.seed,
		Algorithm: c.algorithm, Schedule: c.schedule,
		Faults: c.faults, Budget: c.budget,
	})
	if r.Err != nil {
		return ElectionResult{}, fmt.Errorf("repro: election run: %w", r.Err)
	}
	res := ElectionResult{
		Winner:       -1,
		Decisions:    r.Decisions,
		Time:         r.Stats.MaxCommunicateCalls(),
		Messages:     r.Stats.MessagesSent,
		PayloadBytes: r.Stats.PayloadBytes,
		Rounds:       r.MaxRound,
		Stats:        r.Stats,
	}
	for id, d := range r.Decisions {
		if d == core.Win {
			res.Winner = id
		}
	}
	if res.Winner < 0 {
		return res, ErrNoWinner
	}
	return res, nil
}

// electLive runs Elect on the real-concurrency backend.
func electLive(c config) (ElectionResult, error) {
	switch c.algorithm {
	case PoisonPill, Tournament:
	default:
		return ElectionResult{}, fmt.Errorf("repro: %q is not an election algorithm", c.algorithm)
	}
	sc, err := c.resolveScenario()
	if err != nil {
		return ElectionResult{}, err
	}
	r, err := live.Elect(live.Config{
		N: c.n, K: c.k, Seed: c.seed, Algorithm: live.Algorithm(c.algorithm), Scenario: sc,
		Transport: c.transport,
	})
	if err != nil {
		return ElectionResult{}, fmt.Errorf("repro: live election run: %w", err)
	}
	res := ElectionResult{
		Winner:       r.Winner,
		Decisions:    r.Decisions,
		Crashed:      r.Crashed,
		Time:         r.Time,
		Messages:     r.Messages,
		PayloadBytes: r.Bytes,
		Rounds:       r.Rounds,
	}
	if res.Winner < 0 {
		// Every survivor lost: the linearized winner is among the crashed,
		// exactly as under the Sim backend's Crashing schedule.
		return res, ErrNoWinner
	}
	return res, nil
}

// CampaignReport summarises a parallel election campaign: many independent
// elections fanned across a worker pool (see internal/campaign).
type CampaignReport struct {
	// Runs and Workers echo the effective configuration.
	Runs, Workers int
	// Elapsed is the campaign's wall-clock duration; Throughput its
	// elections completed per second.
	Elapsed    time.Duration
	Throughput float64
	// MeanLatency and the percentiles summarise per-election wall-clock
	// latency.
	MeanLatency, P50, P90, P99, MaxLatency time.Duration
	// MeanTime is the mean of the paper's time metric (max communicate
	// calls per processor) across runs.
	MeanTime float64
	// Elected counts runs with a unique surviving winner; WinnerCrashed
	// counts runs whose winner crashed before returning (possible only
	// under a WithScenario crash schedule); NoQuorum counts runs in which
	// every client was starved of majority quorums by a never-healing
	// partition (NoQuorumOK scenarios only); Crashed totals participants
	// killed across all runs and Starved those that aborted quorumless.
	Elected, WinnerCrashed, NoQuorum, Crashed, Starved int
}

// Campaign fans WithRuns independent elections across a WithWorkers-sized
// pool and aggregates throughput, latency percentiles and election-validity
// counts. It accepts the options of Elect plus WithRuns/WithWorkers, with
// three exceptions the campaign engine does not carry, rejected rather than
// ignored: WithBackend(Sim) (a campaign runs Live elections only:
// wall-clock latency is the campaign question), and WithFaults and
// WithBudget, the single-run Sim knobs. WithScenario injects a
// fault/latency scenario into every run.
func Campaign(opts ...Option) (CampaignReport, error) {
	c := config{n: 16, schedule: Fair, algorithm: PoisonPill, backend: Live}
	for _, o := range opts {
		o(&c)
	}
	if c.k == 0 {
		c.k = c.n
	}
	if err := c.validate(); err != nil {
		return CampaignReport{}, err
	}
	if c.backend != Live {
		return CampaignReport{}, fmt.Errorf("repro: campaigns run the Live backend only (for Sim runs use Elect)")
	}
	if c.faults > 0 {
		return CampaignReport{}, fmt.Errorf("repro: WithFaults is not supported in campaigns (use WithScenario crash scenarios on the Live backend)")
	}
	if c.budget > 0 {
		return CampaignReport{}, fmt.Errorf("repro: WithBudget is not supported in campaigns")
	}
	sc, err := c.resolveScenario()
	if err != nil {
		return CampaignReport{}, err
	}
	rep, err := campaign.Run(campaign.Config{
		Runs: c.runs, Workers: c.workers, N: c.n, K: c.k, BaseSeed: c.seed,
		Algorithm: live.Algorithm(c.algorithm), Scenario: sc, Transport: c.transport,
	})
	if err != nil {
		return CampaignReport{}, fmt.Errorf("repro: %w", err)
	}
	return CampaignReport{
		Runs: rep.Runs, Workers: rep.Workers,
		Elapsed: rep.Elapsed, Throughput: rep.Throughput,
		MeanLatency: rep.Latency.Mean, P50: rep.Latency.P50, P90: rep.Latency.P90,
		P99: rep.Latency.P99, MaxLatency: rep.Latency.Max,
		MeanTime: rep.MeanTime,
		Elected:  rep.Elected, WinnerCrashed: rep.WinnerCrashed,
		NoQuorum: rep.NoQuorum, Crashed: rep.Crashed, Starved: rep.Starved,
	}, nil
}

// RenameResult reports one renaming run.
type RenameResult struct {
	// Names maps each returning participant to its unique name in [1, n].
	Names map[sim.ProcID]int
	// Time is the maximum number of communicate calls any processor made.
	Time int
	// Messages is the total number of messages sent.
	Messages int64
	// Stats exposes the full kernel statistics.
	Stats sim.Stats
}

// Rename runs the strong renaming algorithm: every participant receives a
// distinct name in [1, n].
func Rename(opts ...Option) (RenameResult, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return RenameResult{}, err
	}
	if c.backend == Live {
		return RenameResult{}, fmt.Errorf("repro: renaming is not yet supported on the Live backend")
	}
	algo := expt.AlgoRenaming
	if c.algorithm == Tournament {
		return RenameResult{}, fmt.Errorf("repro: %q is not a renaming algorithm", c.algorithm)
	}
	if c.algorithm == expt.AlgoRandomScan {
		algo = expt.AlgoRandomScan
	}
	r := expt.Run(expt.Config{
		N: c.n, K: c.k, Seed: c.seed,
		Algorithm: algo, Schedule: c.schedule,
		Faults: c.faults, Budget: c.budget,
	})
	if r.Err != nil {
		return RenameResult{}, fmt.Errorf("repro: renaming run: %w", r.Err)
	}
	return RenameResult{
		Names:    r.Names,
		Time:     r.Stats.MaxCommunicateCalls(),
		Messages: r.Stats.MessagesSent,
		Stats:    r.Stats,
	}, nil
}

// RandomScan selects the [AAG+10] random-scan baseline for Rename.
const RandomScan = expt.AlgoRandomScan

// SiftResult reports one standalone sifting round.
type SiftResult struct {
	// Survivors is the number of participants that survived the round.
	Survivors int
	// Outcomes maps each participant to SURVIVE/DIE.
	Outcomes map[sim.ProcID]core.Outcome
	// Stats exposes the full kernel statistics.
	Stats sim.Stats
}

// Sifter choices for Sift.
const (
	// BasicSift is one round of Figure 1 (O(√n) survivors).
	BasicSift = expt.AlgoBasicSift
	// HetSift is one round of Figure 2 (O(log²k) survivors).
	HetSift = expt.AlgoHetSift
	// NaiveSift is the introduction's broken strawman.
	NaiveSift = expt.AlgoNaiveSift
)

// Sift runs one standalone sifting round (use WithAlgorithm with BasicSift,
// HetSift or NaiveSift). At least one participant always survives.
func Sift(opts ...Option) (SiftResult, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return SiftResult{}, err
	}
	algo := c.algorithm
	if algo == PoisonPill {
		algo = BasicSift
	}
	switch algo {
	case BasicSift, HetSift, NaiveSift:
	default:
		return SiftResult{}, fmt.Errorf("repro: %q is not a sifting algorithm", algo)
	}
	if c.backend == Live {
		if algo == NaiveSift {
			return SiftResult{}, fmt.Errorf("repro: %q requires the Sim backend (its failure mode needs the adversary)", algo)
		}
		r, err := live.Sift(live.Config{
			N: c.n, K: c.k, Seed: c.seed, Algorithm: live.Algorithm(algo),
			Transport: c.transport,
		})
		if err != nil {
			return SiftResult{}, fmt.Errorf("repro: live sift run: %w", err)
		}
		survivors := 0
		for _, o := range r.Outcomes {
			if o == core.Survive {
				survivors++
			}
		}
		return SiftResult{Survivors: survivors, Outcomes: r.Outcomes}, nil
	}
	r := expt.Run(expt.Config{
		N: c.n, K: c.k, Seed: c.seed,
		Algorithm: algo, Schedule: c.schedule,
		Faults: c.faults, Budget: c.budget,
	})
	if r.Err != nil {
		return SiftResult{}, fmt.Errorf("repro: sift run: %w", r.Err)
	}
	return SiftResult{
		Survivors: r.Survivors(),
		Outcomes:  r.Outcomes,
		Stats:     r.Stats,
	}, nil
}
