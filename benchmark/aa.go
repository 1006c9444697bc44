package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runAA runs the full set — workloads, ladder and traced re-runs — twice,
// back to back, each in a fresh child process of this binary, and holds the
// two results against each other: an A/A test of the benchmark itself.
func runAA(selected []workload, o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark -aa:", err)
		return 1
	}
	var reps [2]*report
	for i := range reps {
		dir := filepath.Join(o.outDir, "aa-"+strconv.Itoa(i+1))
		args := []string{"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", "1", "-out", dir}
		if o.short {
			args = append(args, "-short")
		}
		if len(selected) == 1 {
			args = append(args, "-workload", selected[0].Name)
		}
		fmt.Fprintf(stderr, "benchmark -aa: run %d of 2\n", i+1)
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = io.Discard, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark -aa: run %d: %v\n", i+1, err)
			return 1
		}
		buf, err := os.ReadFile(filepath.Join(dir, "result.json"))
		if err == nil {
			reps[i] = &report{}
			err = json.Unmarshal(buf, reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark -aa: run %d: %v\n", i+1, err)
			return 1
		}
	}
	if bad := compareAA(stdout, reps[0], reps[1]); bad > 0 {
		fmt.Fprintf(stderr, "benchmark -aa: %d comparisons outside their bound\n", bad)
		return 1
	}
	return 0
}

// compareAA prints, per workload and end-to-end metric, both values, their
// relative difference and the bound, then the sim counts, and returns how
// many comparisons fail: an end-to-end metric apart by more than its bound
// (failed_share: any failure at all), or a sim count that differs at all.
func compareAA(w io.Writer, a, b *report) int {
	bad := 0
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		bad++
		return "OUTSIDE"
	}
	fmt.Fprintf(w, "%-22s %-36s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		for _, d := range endToEndDefs {
			va, vb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			diff := ratio(math.Abs(vb-va), math.Abs(va))
			fmt.Fprintf(w, "%-22s %-36s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n",
				ra.Name, d.Name, va, vb, diff*100, d.Bound*100, verdict(diff <= d.Bound))
		}
		va, vb := ra.PerLayer[failedShare], rb.PerLayer[failedShare]
		fmt.Fprintf(w, "%-22s %-36s %14.6g %14.6g %9s %7s  %s\n", ra.Name, failedShare, va, vb, "", "0 abs", verdict(va == 0 && vb == 0))
	}
	for _, name := range sortedKeys(a.Ladder) {
		if strings.Contains(name, ".sim_") {
			va, vb := a.Ladder[name], b.Ladder[name]
			fmt.Fprintf(w, "%-22s %-36s %14.6g %14.6g %9s %7s  %s\n", "ladder", name, va, vb, "", "exact", verdict(va == vb))
		}
	}
	return bad
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
