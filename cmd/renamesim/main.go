// Command renamesim runs strong-renaming simulations (the paper's
// balls-into-bins algorithm or the random-scan baseline) and prints the
// assignment and complexity measures.
//
// Usage:
//
//	renamesim -n 64 -schedule fair -seed 1
//	renamesim -n 64 -algorithm random-scan -schedule lockstep
//	renamesim -n 32 -schedule staleviews -seeds 5 -names
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/expt"
	"repro/internal/sim"
)

func main() {
	var (
		n         = flag.Int("n", 64, "system size (and name space)")
		k         = flag.Int("k", 0, "participants (0 = all processors)")
		seed      = flag.Int64("seed", 1, "first random seed")
		seeds     = flag.Int("seeds", 1, "number of seeds to sweep")
		algo      = flag.String("algorithm", "renaming", "renaming | random-scan")
		sched     = flag.String("schedule", "fair", "fair | lockstep | sequential | crash | bubble | staleviews")
		faults    = flag.Int("faults", 0, "crash budget (crash schedule)")
		showNames = flag.Bool("names", false, "print the full name assignment")
	)
	flag.Parse()

	if err := run(*n, *k, *seed, *seeds, *algo, *sched, *faults, *showNames); err != nil {
		fmt.Fprintln(os.Stderr, "renamesim:", err)
		os.Exit(1)
	}
}

func run(n, k int, seed int64, seeds int, algo, sched string, faults int, showNames bool) error {
	for s := 0; s < seeds; s++ {
		cfg := expt.Config{
			N: n, K: k, Seed: seed + int64(s),
			Algorithm: expt.Algorithm(algo),
			Schedule:  expt.Schedule(sched),
			Faults:    faults,
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		r := expt.Run(cfg)
		if r.Err != nil {
			return fmt.Errorf("seed %d: %w", cfg.Seed, r.Err)
		}
		maxIters := 0
		for _, it := range r.Iterations {
			if it > maxIters {
				maxIters = it
			}
		}
		fmt.Printf("seed=%-4d assigned=%-4d time=%-4d max-trials=%-3d messages=%-9d messages/n²=%.2f\n",
			cfg.Seed, len(r.Names), r.Stats.MaxCommunicateCalls(), maxIters,
			r.Stats.MessagesSent, float64(r.Stats.MessagesSent)/float64(n*n))
		if showNames {
			ids := make([]sim.ProcID, 0, len(r.Names))
			for id := range r.Names {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				fmt.Printf("  processor %-3d -> name %d\n", id, r.Names[id])
			}
		}
	}
	return nil
}
