// Renaming: assign the names 1..n to n processors in O(log²n) time and
// O(n²) messages (Section 4), even when an adversary skews the contention
// views the processors act on.
//
// Each processor repeatedly picks a uniformly random name it still believes
// is free and competes for it in a per-name leader election; contention
// knowledge spreads through propagate/collect quorum calls. The StaleViews
// schedule starves half the system of updates, maximising collisions — the
// algorithm must absorb them.
//
// Run with:
//
//	go run ./examples/renaming
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/sim"
)

func main() {
	const n = 32
	for _, tc := range []struct {
		label    string
		schedule repro.Schedule
	}{
		{"fair schedule", repro.Fair},
		{"stale-view adversary", repro.StaleViews},
	} {
		res, err := repro.Rename(
			repro.WithN(n),
			repro.WithSchedule(tc.schedule),
			repro.WithSeed(3),
		)
		if err != nil {
			log.Fatalf("renaming under %s failed: %v", tc.label, err)
		}
		fmt.Printf("%s: %d names assigned, time %d (log²n = %d), messages %d (n² = %d)\n",
			tc.label, len(res.Names), res.Time, 25, res.Messages, n*n)

		ids := make([]sim.ProcID, 0, len(res.Names))
		for id := range res.Names {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Print("  assignment:")
		for _, id := range ids[:8] {
			fmt.Printf(" p%d→%d", id, res.Names[id])
		}
		fmt.Println(" …")

		// Strong renaming: Rename has judged the names distinct and in
		// [1, n] (a violation is its error), so n of them are a
		// permutation of 1..n.
		if len(res.Names) != n {
			log.Fatalf("%d of %d participants named", len(res.Names), n)
		}
	}
	fmt.Println("\nboth runs produced a perfect permutation of 1..n (Lemma A.6)")
}
