// Command electsim runs single leader-election (or sifting) simulations and
// prints their complexity measures.
//
// Usage:
//
//	electsim -n 64 -k 64 -algorithm poisonpill -schedule fair -seed 1
//	electsim -n 256 -algorithm tournament -schedule lockstep
//	electsim -n 256 -algorithm basic-sift -schedule sequential -seeds 10
//
// Algorithms: poisonpill (default), tournament, basic-sift, het-sift,
// naive-sift. Schedules: fair (default), lockstep, sequential, seqrounds,
// flipaware, crash, bubble, staleviews.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/expt"
)

func main() {
	var (
		n      = flag.Int("n", 64, "system size (total processors)")
		k      = flag.Int("k", 0, "participants (0 = all processors)")
		seed   = flag.Int64("seed", 1, "first random seed")
		seeds  = flag.Int("seeds", 1, "number of seeds to sweep")
		algo   = flag.String("algorithm", "poisonpill", "poisonpill | tournament | basic-sift | het-sift | naive-sift")
		sched  = flag.String("schedule", "fair", "fair | lockstep | sequential | seqrounds | flipaware | crash | bubble | staleviews")
		faults = flag.Int("faults", 0, "crash budget (crash schedule)")
	)
	flag.Parse()

	if err := run(*n, *k, *seed, *seeds, *algo, *sched, *faults); err != nil {
		fmt.Fprintln(os.Stderr, "electsim:", err)
		os.Exit(1)
	}
}

func run(n, k int, seed int64, seeds int, algo, sched string, faults int) error {
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
		switch cfg.Algorithm {
		case expt.AlgoBasicSift, expt.AlgoHetSift, expt.AlgoNaiveSift:
			fmt.Printf("seed=%-4d survivors=%-4d of %-4d  time=%-3d messages=%-8d bytes=%d\n",
				cfg.Seed, r.Survivors(), len(r.Outcomes),
				r.Stats.MaxCommunicateCalls(), r.Stats.MessagesSent, r.Stats.PayloadBytes)
		default:
			winner := -1
			for id, d := range r.Decisions {
				if d.String() == "WIN" {
					winner = int(id)
				}
			}
			fmt.Printf("seed=%-4d winner=%-4d rounds=%-3d time=%-3d messages=%-8d bytes=%-10d crashes=%d\n",
				cfg.Seed, winner, r.MaxRound,
				r.Stats.MaxCommunicateCalls(), r.Stats.MessagesSent, r.Stats.PayloadBytes, r.Stats.Crashes)
		}
	}
	return nil
}
