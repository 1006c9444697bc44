// Command benchgate compares a freshly generated BENCH_*.json against a
// checked-in baseline and fails (exit 1) on regressions beyond a threshold
// in the gated metrics — the CI bench job's regression gate.
//
// Both files hold the repository's benchmark-metric schema (docs/BENCH.md):
// {"profiles": [{"host": {cores, gomaxprocs, goos, goarch}, "metrics":
// [{"name": ..., "value": ...}], "phases": [...]}]}. benchgate gates only
// the scalar metrics; the phases ride along as recorded context for perf
// PRs.
//
// Contention numbers are host-shaped, so profile selection (-host) decides
// which section of a profiled file is compared: "auto" (the default) picks
// the profile measured on a machine like this one (cores, goos, goarch
// equal), "cores=N" picks by core count, and "any" requires the file to
// hold exactly one profile. When the *baseline* holds no matching profile —
// the checked-in numbers came from a different machine shape — the
// baseline compare is skipped with a note and exit 0: comparing a
// single-core container's curve against a many-core runner's would gate
// on hardware, not code. The -ratio gates are unaffected: they pair
// variants inside the current file, where hardware cancels out.
//
// Every metric present in both files is printed benchstat-style with its
// delta; only metrics matching -gate are enforced — by default the latency
// metrics (`election-sec`) and the allocation counts (`allocs`), so both a
// slow hot path and a pooling regression fail CI. Direction is inferred
// from the name: metrics matching -higher (throughput-like, "...-per-sec")
// regress when they fall, everything else (latency-like, "...-sec",
// "allocs") regresses when it rises.
//
// -ratio gates paired variants inside the *current* file alone: for each
// "traced:untraced" prefix pair, every gated metric of the traced variant
// is divided by its untraced sibling and the ratio must stay within
// -ratio-threshold of 1. This is how CI bounds the flight recorder's
// overhead: the disabled-trace path is gated to zero added allocations via
// the ordinary baseline compare, and the enabled-trace path is gated to a
// bounded delta via the pair ratio — no second baseline file needed.
//
// Usage:
//
//	benchgate -baseline BENCH_net.baseline.json -current BENCH_net.json \
//	          [-gate '(?:election-sec|allocs)$'] [-higher '-per-sec$'] [-threshold 0.30]
//	benchgate -current BENCH_net.json -ratio 't13/tcp-traced:t13/tcp' \
//	          [-ratio-gate 'allocs$'] [-ratio-threshold 0.25]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one row of a BENCH_*.json file.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// hostProfile keys one profile section of a BENCH_*.json file: the machine
// shape its numbers were measured on.
type hostProfile struct {
	Cores      int    `json:"cores"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Goos       string `json:"goos"`
	Goarch     string `json:"goarch"`
}

func (h hostProfile) String() string {
	return fmt.Sprintf("cores=%d gomaxprocs=%d %s/%s", h.Cores, h.Gomaxprocs, h.Goos, h.Goarch)
}

// hostSelector decides which profile of a file to compare.
type hostSelector struct {
	mode  string // "auto", "any", or "cores"
	cores int    // for mode "cores"
}

// parseHostSelector parses the -host flag.
func parseHostSelector(s string) (hostSelector, error) {
	switch {
	case s == "auto":
		return hostSelector{mode: "auto"}, nil
	case s == "any":
		return hostSelector{mode: "any"}, nil
	case strings.HasPrefix(s, "cores="):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "cores="))
		if err != nil || n <= 0 {
			return hostSelector{}, fmt.Errorf("-host %q: want cores=<positive int>", s)
		}
		return hostSelector{mode: "cores", cores: n}, nil
	default:
		return hostSelector{}, fmt.Errorf("-host %q: want auto, any, or cores=<n>", s)
	}
}

// matches reports whether a profile satisfies the selector. "auto" matches
// on machine shape — cores, goos, goarch — but not gomaxprocs: an
// explicitly lowered or raised GOMAXPROCS is an experiment, and its profile
// is selected explicitly (cores=...), never silently.
func (sel hostSelector) matches(h hostProfile) bool {
	switch sel.mode {
	case "auto":
		return h.Cores == runtime.NumCPU() && h.Goos == runtime.GOOS && h.Goarch == runtime.GOARCH &&
			h.Gomaxprocs == h.Cores
	case "cores":
		return h.Cores == sel.cores
	default: // "any"
		return true
	}
}

// row is one comparison line.
type row struct {
	name     string
	old, new float64
	delta    float64 // fractional change, sign-adjusted so positive = worse
	gated    bool
	failed   bool
}

// compare builds the comparison table and flags gated regressions beyond
// threshold. Metrics present in only one file are ignored (new benchmarks
// appear, old ones retire); the gate only ever tightens on shared names.
func compare(baseline, current map[string]float64, gate, higher *regexp.Regexp, threshold float64) []row {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		if _, ok := current[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rows := make([]row, 0, len(names))
	for _, name := range names {
		old, new := baseline[name], current[name]
		r := row{name: name, old: old, new: new, gated: gate.MatchString(name)}
		switch {
		case old == 0:
			r.delta = 0 // degenerate baseline: report, never gate
		case higher.MatchString(name):
			r.delta = (old - new) / old // drop in throughput = positive = worse
		default:
			r.delta = (new - old) / old // rise in latency/allocs = positive = worse
		}
		r.failed = r.gated && old != 0 && r.delta > threshold
		rows = append(rows, r)
	}
	return rows
}

func main() {
	baselinePath := flag.String("baseline", "", "checked-in baseline BENCH_*.json (optional when only -ratio gates run)")
	currentPath := flag.String("current", "", "freshly generated BENCH_*.json")
	gatePat := flag.String("gate", `(?:election-sec|allocs)$`, "regexp selecting the metrics the gate enforces")
	higherPat := flag.String("higher", `-per-sec$`, "regexp selecting higher-is-better metrics")
	threshold := flag.Float64("threshold", 0.30, "fractional regression beyond which a gated metric fails")
	ratioPairs := flag.String("ratio", "", "comma-separated traced:untraced prefix pairs gated against each other inside the current file")
	ratioGate := flag.String("ratio-gate", `allocs$`, "regexp selecting the metrics the -ratio pairs gate")
	ratioThreshold := flag.Float64("ratio-threshold", 0.25, "fractional traced/untraced overhead beyond which a -ratio pair fails")
	hostFlag := flag.String("host", "auto", "profile selection for profiled files: auto, any, or cores=<n>")
	flag.Parse()
	if *currentPath == "" || (*baselinePath == "" && *ratioPairs == "") {
		fmt.Fprintln(os.Stderr, "benchgate: -current plus -baseline and/or -ratio are required")
		os.Exit(2)
	}
	sel, err := parseHostSelector(*hostFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	current, ok, note, err := load(*currentPath, sel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if !ok {
		// The current file is this run's own output; failing to find this
		// host in it means the harness and gate disagree — a real error.
		fmt.Fprintf(os.Stderr, "benchgate: %s: %s\n", *currentPath, note)
		os.Exit(2)
	}
	if note != "" {
		fmt.Printf("current  %s (%s)\n", *currentPath, note)
	}
	failures := 0
	if *baselinePath != "" {
		baseline, ok, note, err := load(*baselinePath, sel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if !ok {
			// The checked-in baseline was measured on a different machine
			// shape: comparing across shapes would gate on hardware, not
			// code. Skip the baseline compare (the -ratio gates below still
			// run — they pair variants inside the current file).
			fmt.Printf("baseline %s: %s\nbaseline compare skipped (no comparable host profile)\n", *baselinePath, note)
			baseline = nil
		}
		if baseline != nil {
			if note != "" {
				fmt.Printf("baseline %s (%s)\n", *baselinePath, note)
			}
			rows := compare(baseline, current, regexp.MustCompile(*gatePat), regexp.MustCompile(*higherPat), *threshold)
			if len(rows) == 0 {
				fmt.Fprintln(os.Stderr, "benchgate: no shared metrics between baseline and current")
				os.Exit(2)
			}
			fmt.Printf("%-44s %14s %14s %9s\n", "metric", "old", "new", "delta")
			for _, r := range rows {
				mark := " "
				if r.gated {
					mark = "*"
					if r.failed {
						mark = "!"
						failures++
					}
				}
				fmt.Printf("%-44s %14.6g %14.6g %+8.1f%% %s\n", r.name, r.old, r.new, 100*r.delta, mark)
			}
			fmt.Printf("\n(* gated; ! regression beyond %.0f%%; positive delta = worse)\n", 100**threshold)
		}
	}
	if *ratioPairs != "" {
		rows, err := compareRatios(current, strings.Split(*ratioPairs, ","), regexp.MustCompile(*ratioGate), *ratioThreshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("\n%-44s %14s %14s %9s\n", "paired metric (vs sibling)", "traced", "untraced", "ratio")
		for _, r := range rows {
			mark := "*"
			ratio := "-"
			if !r.degenerate {
				ratio = fmt.Sprintf("%.2fx", r.ratio)
				if r.failed {
					mark = "!"
					failures++
				}
			}
			fmt.Printf("%-44s %14.6g %14.6g %9s %s\n", r.name, r.num, r.den, ratio, mark)
		}
		fmt.Printf("\n(paired gate: traced/untraced ratio beyond %.2fx fails)\n", 1+*ratioThreshold)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d gated metric(s) regressed beyond the threshold\n", failures)
		os.Exit(1)
	}
}

// load reads one BENCH_*.json metric file and selects the profile the
// selector asks for. ok is false — with the available profiles described
// in note — when the file holds no match; the caller decides whether that
// is a skip (baseline) or an error (current). The "phases" attribution
// baselines are ignored throughout — context, not gated numbers.
func load(path string, sel hostSelector) (out map[string]float64, ok bool, note string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, "", err
	}
	ms, ok, note, err := parseMetrics(raw, sel)
	if err != nil {
		return nil, false, "", fmt.Errorf("%s: %w", path, err)
	}
	if !ok {
		return nil, false, note, nil
	}
	out = make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out, true, note, nil
}

// parseMetrics decodes a BENCH_*.json file and applies the profile
// selector; see load. A file without a "profiles" key is a parse error.
func parseMetrics(raw []byte, sel hostSelector) (ms []metric, ok bool, note string, err error) {
	var obj struct {
		Profiles []struct {
			Host    hostProfile `json:"host"`
			Metrics []metric    `json:"metrics"`
		} `json:"profiles"`
	}
	err = json.Unmarshal(raw, &obj)
	if err == nil && obj.Profiles == nil {
		err = errors.New("key absent")
	}
	if err != nil {
		return nil, false, "", fmt.Errorf("want an object with a \"profiles\" key: %w", err)
	}
	if sel.mode == "any" && len(obj.Profiles) > 1 {
		return nil, false, "", fmt.Errorf("-host any needs exactly one profile, file holds %d", len(obj.Profiles))
	}
	var hosts []string
	for _, p := range obj.Profiles {
		if sel.matches(p.Host) {
			return p.Metrics, true, fmt.Sprintf("profile: %s", p.Host), nil
		}
		hosts = append(hosts, p.Host.String())
	}
	return nil, false, fmt.Sprintf("no profile matches this host; file holds: %s", strings.Join(hosts, "; ")), nil
}

// ratioRow is one paired-variant comparison inside the current file.
type ratioRow struct {
	name       string // the traced variant's metric name
	sibling    string
	num, den   float64
	ratio      float64
	failed     bool
	degenerate bool // zero denominator: report, never gate
}

// compareRatios gates paired variants: for every current metric whose name
// contains the pair's first prefix and matches gate, the metric with the
// prefix swapped for the second must exist, and their ratio must not
// exceed 1+threshold. Pairs are "traced:untraced" prefix strings.
func compareRatios(current map[string]float64, pairs []string, gate *regexp.Regexp, threshold float64) ([]ratioRow, error) {
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []ratioRow
	for _, pair := range pairs {
		a, b, ok := strings.Cut(pair, ":")
		if !ok || a == "" || b == "" {
			return nil, fmt.Errorf("ratio pair %q must be \"traced:untraced\"", pair)
		}
		matched := false
		for _, name := range names {
			if !strings.Contains(name, a) || !gate.MatchString(name) {
				continue
			}
			sibling := strings.Replace(name, a, b, 1)
			den, ok := current[sibling]
			if !ok {
				return nil, fmt.Errorf("metric %s has no %s sibling %s", name, b, sibling)
			}
			matched = true
			r := ratioRow{name: name, sibling: sibling, num: current[name], den: den}
			if den == 0 {
				r.degenerate = true
			} else {
				r.ratio = r.num / den
				r.failed = r.ratio > 1+threshold
			}
			rows = append(rows, r)
		}
		if !matched {
			return nil, fmt.Errorf("ratio pair %q matched no gated metric in the current file", pair)
		}
	}
	return rows, nil
}
