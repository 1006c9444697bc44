package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke tests: run, the binary's one entry point below flag parsing.

func TestRunPrintsATable(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "quick", "t1", false); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "T1 — ") || !strings.Contains(out.String(), "claim:") {
		t.Fatalf("-only t1 printed no T1 table:\n%s", out.String())
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "quick", "T1,T99", false)
	if err == nil || !strings.Contains(err.Error(), `"T99"`) || !strings.Contains(err.Error(), "T13, A1") {
		t.Errorf("-only T1,T99: error %v, want one naming T99 and the known IDs", err)
	}
	if out.Len() != 0 {
		t.Errorf("-only T1,T99 ran an experiment before failing:\n%s", out.String())
	}
	if err := run(&out, "huge", "T1", false); err == nil {
		t.Error("an unknown scale ran")
	}
}
