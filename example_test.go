package repro_test

// Runnable godoc examples for the public repro API. The Sim backend is
// bit-for-bit deterministic, so its examples assert exact output; Live and
// Campaign examples assert the invariants that hold under every OS
// schedule (a unique winner, balanced validity counts) rather than
// schedule-dependent values.

import (
	"fmt"

	"repro"
)

// ExampleElect runs one election on the default Sim backend: the paper's
// model exactly, adversary-scheduled and reproducible from the seed.
func ExampleElect() {
	res, err := repro.Elect(repro.WithN(8), repro.WithSeed(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("winner:", res.Winner)
	fmt.Println("communicate calls:", res.Time)
	fmt.Println("participants decided:", len(res.Decisions))
	// Output:
	// winner: 3
	// communicate calls: 16
	// participants decided: 8
}

// ExampleElect_live runs the same election on the Live backend: real
// OS-scheduled goroutines, wall-clock time. The winner's identity varies
// with the schedule; its uniqueness never does.
func ExampleElect_live() {
	res, err := repro.Elect(repro.WithN(8), repro.WithSeed(1),
		repro.WithBackend(repro.Live))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Elect judges the decisions: a second winner would be its error.
	fmt.Println("unique winner:", res.Winner >= 0)
	fmt.Println("everyone decided:", len(res.Decisions) == 8)
	// Output:
	// unique winner: true
	// everyone decided: true
}

// ExampleElect_scenario injects a named fault scenario into a Live run:
// here the full crash budget of ⌈n/2⌉−1 processors failing at randomized
// times. Survivors still agree on at most one leader; if every survivor
// lost, the winner itself crashed and Elect reports ErrNoWinner.
func ExampleElect_scenario() {
	res, err := repro.Elect(repro.WithN(16), repro.WithSeed(7),
		repro.WithBackend(repro.Live), repro.WithScenario("crash-minority"))
	// Elect judges the survivors' decisions: a second winner would be an
	// error other than ErrNoWinner.
	fmt.Println("at most one winner:", err == nil || err == repro.ErrNoWinner)
	fmt.Println("accounted for:", len(res.Decisions)+len(res.Crashed) == 16)
	// Output:
	// at most one winner: true
	// accounted for: true
}

// ExampleCampaign fans independent Live elections across a worker pool and
// aggregates throughput, latency percentiles and validity counts — the
// production view of the algorithm.
func ExampleCampaign() {
	rep, err := repro.Campaign(repro.WithN(8), repro.WithRuns(16),
		repro.WithWorkers(4), repro.WithSeed(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("runs:", rep.Runs)
	fmt.Println("all elected:", rep.Elected == rep.Runs)
	fmt.Println("percentiles ordered:", rep.P50 <= rep.P90 && rep.P90 <= rep.P99)
	// Output:
	// runs: 16
	// all elected: true
	// percentiles ordered: true
}

// ExampleElect_rejected shows a configuration Elect refuses with an error
// rather than running: an unknown algorithm or schedule, more participants
// than processors, or more processors than the register store has owners.
func ExampleElect_rejected() {
	for _, opts := range [][]repro.Option{
		{repro.WithAlgorithm("nope")},
		{repro.WithSchedule("nope")},
		{repro.WithN(4), repro.WithParticipants(9)},
		{repro.WithN(1 << 13)},
	} {
		_, err := repro.Elect(opts...)
		fmt.Println(err)
	}
	// Output:
	// repro: election run: expt: unknown algorithm "nope"
	// repro: election run: expt: unknown schedule "nope"
	// repro: participants 9 must be in [1, 4]
	// repro: system size 8192 exceeds the register store's 8160 owners
}

// ExampleSift runs one standalone round of the basic sifter (Figure 1)
// under the default fair schedule: at least one participant survives, and
// O(√n) do in expectation.
func ExampleSift() {
	res, err := repro.Sift(repro.WithN(16), repro.WithAlgorithm(repro.BasicSift), repro.WithSeed(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("survivors:", res.Survivors, "of", len(res.Outcomes))
	// Output:
	// survivors: 3 of 16
}

// ExampleRename runs the random-scan renaming baseline: every participant
// ends with a distinct name in [1, n].
func ExampleRename() {
	res, err := repro.Rename(repro.WithN(8), repro.WithAlgorithm(repro.RandomScan), repro.WithSeed(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("names:", res.Names)
	fmt.Println("communicate calls:", res.Time)
	// Output:
	// names: map[0:6 1:1 2:8 3:4 4:7 5:2 6:3 7:5]
	// communicate calls: 40
}
