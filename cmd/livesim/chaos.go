package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/live"
)

// The chaos runner sweeps fault.ChaosGrid() — partitions, crash-recovery,
// flaky links and their combination — across seeds and backends as four
// campaign.RunMatrix columns, and reports the campaign verdict on every
// election rather than aggregating it away. A single invalid run fails the
// whole sweep (exit 1), which is what the CI chaos-grid job keys on.

// chaosSiblings is the number of other scenarios' elections each
// tcp-shared election runs beside on the shared cluster.
const chaosSiblings = 2

// chaosCell aggregates one (scenario, backend) cell of the grid.
type chaosCell struct {
	Scenario string `json:"scenario"`
	Backend  string `json:"backend"` // chan | tcp | udp | tcp-shared
	Runs     int    `json:"runs"`
	// Valid run outcomes: a unique surviving winner, a winnerless run
	// whose linearized winner crashed, or a fully starved no-quorum run.
	Elected       int `json:"elected"`
	WinnerCrashed int `json:"winner_crashed"`
	NoQuorumRuns  int `json:"no_quorum_runs"`
	// Participant totals across the cell's runs.
	Crashed int `json:"crashed_participants"`
	Starved int `json:"starved_participants"`
	// Invalid counts runs that violated the validity contract; Violations
	// carries one line per violation for the report artifact.
	Invalid    int      `json:"invalid"`
	Violations []string `json:"violations,omitempty"`
	P50Micros  int64    `json:"p50_us"`
	MaxMicros  int64    `json:"max_us"`
}

// chaosReport is the machine-readable artifact the sweep writes.
type chaosReport struct {
	N         int         `json:"n"`
	K         int         `json:"k"`
	Seeds     int         `json:"seeds"`
	BaseSeed  int64       `json:"base_seed"`
	Algorithm string      `json:"algorithm"`
	Cells     []chaosCell `json:"cells"`
	// SiblingRuns and SiblingInvalid account the blast radius: the
	// tcp-shared column's elections, each multiplexed on one cluster beside
	// other scenarios' elections, and how many of them were invalid (must
	// be zero). They are already counted in Cells and Invalid.
	SiblingRuns    int   `json:"sibling_runs"`
	SiblingInvalid int   `json:"sibling_invalid"`
	Invalid        int   `json:"invalid"`
	ElapsedMillis  int64 `json:"elapsed_ms"`
}

// chaosColumn is one backend of the grid: a transport, the scenarios it
// runs, and how many elections run at once.
type chaosColumn struct {
	backend   string
	transport live.Transport
	scenarios []fault.Scenario
	workers   int
}

// chaosColumns lays the grid out. chan, tcp and udp run every scenario one
// election at a time; the grid holds crash scenarios, so RunMatrix gives
// tcp and udp one cluster per run. tcp-shared runs the scenarios whose
// faults are link-only (client-side, per election) or absent — the
// configurations a deployed service would multiplex — on one shared
// cluster, 1+chaosSiblings elections at a time: the blast-radius check,
// since each must still meet the contract beside other scenarios' faults.
func chaosColumns() []chaosColumn {
	grid := fault.ChaosGrid()
	var shared []fault.Scenario
	for _, sc := range grid {
		if !sc.Active() || sc.LinkOnly() {
			shared = append(shared, sc)
		}
	}
	return []chaosColumn{
		{"chan", live.TransportChan, grid, 1},
		{"tcp", live.TransportTCP, grid, 1},
		{"udp", live.TransportUDP, grid, 1},
		{"tcp-shared", live.TransportTCP, shared, 1 + chaosSiblings},
	}
}

// runChaos executes the chaos grid and writes the report artifact. It
// returns an error (after writing the report) when any run was invalid.
func runChaos(cfg config, seeds int, out string) error {
	k := cfg.k
	if k == 0 {
		k = cfg.n
	}
	rep := chaosReport{N: cfg.n, K: k, Seeds: seeds, BaseSeed: cfg.seed, Algorithm: cfg.algo}
	columns := chaosColumns()
	rows := map[[2]string]campaign.ScenarioReport{}
	start := time.Now()
	for _, col := range columns {
		m, err := campaign.RunMatrix(campaign.Config{
			Runs: seeds, Workers: col.workers, N: cfg.n, K: cfg.k, BaseSeed: cfg.seed,
			Algorithm: live.Algorithm(cfg.algo), Transport: col.transport,
		}, col.scenarios)
		if err != nil && !errors.Is(err, campaign.ErrInvalidRuns) {
			return fmt.Errorf("chaos %s: %w", col.backend, err)
		}
		for _, row := range m.Scenarios {
			rows[[2]string{row.Scenario.Name, col.backend}] = row
		}
	}
	rep.ElapsedMillis = time.Since(start).Milliseconds()

	for _, sc := range fault.ChaosGrid() {
		for _, col := range columns {
			row, ok := rows[[2]string{sc.Name, col.backend}]
			if !ok {
				continue
			}
			rep.Cells = append(rep.Cells, chaosCell{
				Scenario: sc.Name, Backend: col.backend, Runs: row.Runs,
				Elected: row.Elected, WinnerCrashed: row.WinnerCrashed, NoQuorumRuns: row.NoQuorum,
				Crashed: row.Crashed, Starved: row.Starved,
				Invalid: row.Invalid, Violations: row.Violations,
				P50Micros: row.Latency.P50.Microseconds(), MaxMicros: row.Latency.Max.Microseconds(),
			})
			rep.Invalid += row.Invalid
			if col.backend == "tcp-shared" {
				rep.SiblingRuns += row.Runs
				rep.SiblingInvalid += row.Invalid
			}
		}
	}

	printChaos(rep)
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write chaos report: %w", err)
		}
		fmt.Printf("report: %s\n", out)
	}
	if rep.Invalid > 0 {
		return fmt.Errorf("chaos grid: %d invalid elections", rep.Invalid)
	}
	return nil
}

// printChaos renders the grid, one line per cell.
func printChaos(rep chaosReport) {
	fmt.Printf("chaos grid: n=%d k=%d seeds=%d algorithm=%s\n", rep.N, rep.K, rep.Seeds, rep.Algorithm)
	fmt.Printf("%-18s %-11s %-5s %-8s %-7s %-9s %-8s %-8s %-8s %-8s\n",
		"scenario", "backend", "runs", "elected", "no-win", "noquorum", "crashed", "starved", "invalid", "p50")
	for _, c := range rep.Cells {
		fmt.Printf("%-18s %-11s %-5d %-8d %-7d %-9d %-8d %-8d %-8d %vµs\n",
			c.Scenario, c.Backend, c.Runs, c.Elected, c.WinnerCrashed, c.NoQuorumRuns,
			c.Crashed, c.Starved, c.Invalid, c.P50Micros)
		for _, v := range c.Violations {
			fmt.Printf("    violation: %s\n", v)
		}
	}
	fmt.Printf("\nblast radius: %d elections beside other scenarios on shared clusters, %d invalid\n",
		rep.SiblingRuns, rep.SiblingInvalid)
	fmt.Printf("invalid: %d of %d elections (%dms)\n",
		rep.Invalid, len(rep.Cells)*rep.Seeds, rep.ElapsedMillis)
}
