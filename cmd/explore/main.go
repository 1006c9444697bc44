// Command explore runs bounded-exhaustive schedule exploration of the
// paper's protocols on tiny systems, checking safety invariants over every
// explored adversary schedule (see internal/explore).
//
// Usage:
//
//	explore -protocol sift -n 2 -seeds 8            # full exhaustive
//	explore -protocol election -n 2 -depth 8
//	explore -protocol hetsift -n 3 -depth 7 -seeds 4
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/explore"
	"repro/internal/expt"
)

func main() {
	var (
		protocol = flag.String("protocol", "sift", "sift | hetsift | election")
		n        = flag.Int("n", 2, "participants (keep tiny: the tree is exponential)")
		depth    = flag.Int("depth", 0, "exhaustive choice depth (0 = unlimited)")
		seeds    = flag.Int("seeds", 4, "coin seeds to sweep")
		maxNodes = flag.Int("maxnodes", 0, "node cap (0 = default)")
	)
	flag.Parse()

	exit := 0
	for seed := int64(0); seed < int64(*seeds); seed++ {
		factory, err := buildFactory(*protocol, *n, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			os.Exit(2)
		}
		start := time.Now()
		rep, err := explore.Run(factory, explore.Config{MaxDepth: *depth, MaxNodes: *maxNodes})
		if err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			os.Exit(2)
		}
		status := "ok"
		if rep.Failed() {
			status = fmt.Sprintf("FAILED (%d violations, first prefix %v: %v)",
				len(rep.Violations), rep.Violations[0].Prefix, rep.Violations[0].Err)
			exit = 1
		}
		trunc := ""
		if rep.Truncated {
			trunc = " (truncated)"
		}
		fmt.Printf("%s n=%d seed=%d: %d schedules (%d complete, %d depth-capped)%s in %.1fs: %s\n",
			*protocol, *n, seed, rep.Nodes, rep.Leaves, rep.DepthCapped, trunc,
			time.Since(start).Seconds(), status)
	}
	os.Exit(exit)
}

// protocols names the algorithm each -protocol explores.
var protocols = map[string]expt.Algorithm{
	"sift":     expt.AlgoBasicSift,
	"hetsift":  expt.AlgoHetSift,
	"election": expt.AlgoPoisonPill,
}

// buildFactory builds the chosen protocol's run exactly as the sim runs it
// (expt.Build), judged by its algorithm's contract (expt.Instance.Judge).
func buildFactory(protocol string, n int, seed int64) (explore.Factory, error) {
	algo, ok := protocols[protocol]
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", protocol)
	}
	cfg := expt.Config{N: n, Seed: seed, Algorithm: algo}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return func() *explore.Instance {
		in, err := expt.Build(cfg)
		if err != nil {
			panic(err) // cfg is valid
		}
		return &explore.Instance{Kernel: in.Kernel, Check: in.Judge}
	}, nil
}
