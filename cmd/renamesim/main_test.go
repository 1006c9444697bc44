package main

import "testing"

// Smoke tests: run, the binary's one entry point below flag parsing, at n=8
// on one seed. The table goes to standard output, as from the command line.

func TestRunSchedules(t *testing.T) {
	for _, sched := range []string{"fair", "crash"} {
		if err := run(8, 0, 1, 1, "renaming", sched, 3, true); err != nil {
			t.Errorf("-schedule %s: %v", sched, err)
		}
	}
	if err := run(8, 0, 1, 1, "random-scan", "fair", 0, false); err != nil {
		t.Errorf("-algorithm random-scan: %v", err)
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	if err := run(8, 0, 1, 1, "nope", "fair", 0, false); err == nil {
		t.Error("an unknown algorithm ran")
	}
	if err := run(8, 0, 1, 1, "renaming", "nope", 0, false); err == nil {
		t.Error("an unknown schedule ran")
	}
}
