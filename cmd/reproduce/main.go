// Command reproduce regenerates the reproduction's experiment tables: one
// table (or claim-figure series) per quantitative statement of the paper's
// evaluation (docs/PAPER_MAP.md maps the paper's claims to them).
//
// Usage:
//
//	reproduce                      # all experiments, quick scale
//	reproduce -scale standard      # the scale of record
//	reproduce -only T1,T3,F1       # a subset
//	reproduce -markdown            # GitHub-flavored markdown output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/expt"
)

func main() {
	var (
		scale    = flag.String("scale", "quick", "quick | standard | large")
		only     = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown")
	)
	flag.Parse()
	if err := run(os.Stdout, *scale, *only, *markdown); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, scale, only string, markdown bool) error {
	sc, ok := map[string]expt.Scale{
		"quick":    expt.Quick,
		"standard": expt.Standard,
		"large":    expt.Large,
	}[scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", scale)
	}

	registry := expt.Registry()
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !slices.ContainsFunc(registry, func(exp expt.Experiment) bool { return exp.ID == id }) {
			known := make([]string, len(registry))
			for i, exp := range registry {
				known[i] = exp.ID
			}
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
		}
		want[id] = true
	}

	start := time.Now()
	ran := 0
	for _, exp := range registry {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		t0 := time.Now()
		tab := exp.Gen(sc)
		if markdown {
			tab.Markdown(w)
		} else {
			tab.Render(w)
			fmt.Fprintf(w, "  (%.1fs)\n\n", time.Since(t0).Seconds())
		}
		ran++
	}
	fmt.Fprintf(os.Stderr, "reproduce: %d experiments in %.1fs at scale %s\n",
		ran, time.Since(start).Seconds(), scale)
	return nil
}
