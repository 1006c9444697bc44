package main

import "testing"

// Smoke tests: run, the binary's one entry point below flag parsing, at n=8
// on one seed. The table goes to standard output, as from the command line.

func TestRunSchedules(t *testing.T) {
	for _, sched := range []string{"fair", "crash"} {
		if err := run(8, 0, 1, 1, "poisonpill", sched, 3); err != nil {
			t.Errorf("-schedule %s: %v", sched, err)
		}
	}
	if err := run(8, 0, 1, 1, "basic-sift", "fair", 0); err != nil {
		t.Errorf("-algorithm basic-sift: %v", err)
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	if err := run(8, 0, 1, 1, "nope", "fair", 0); err == nil {
		t.Error("an unknown algorithm ran")
	}
	if err := run(8, 0, 1, 1, "poisonpill", "nope", 0); err == nil {
		t.Error("an unknown schedule ran")
	}
	if err := run(4, 9, 1, 1, "poisonpill", "fair", 0); err == nil {
		t.Error("k > n ran")
	}
	if err := run(1<<13, 2, 1, 1, "poisonpill", "fair", 0); err == nil {
		t.Error("n beyond the register store's owner bound ran")
	}
}
