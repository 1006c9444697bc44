package main

import (
	"testing"

	"repro/internal/explore"
)

// Smoke test: each protocol's factory, explored at the command's default
// n = 2 under a depth cap, finds schedules and no violation.
func TestBuildFactoryExplores(t *testing.T) {
	for _, protocol := range []string{"sift", "hetsift", "election"} {
		factory, err := buildFactory(protocol, 2, 0)
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		rep, err := explore.Run(factory, explore.Config{MaxDepth: 6})
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		if rep.Nodes == 0 || rep.Failed() {
			t.Errorf("%s: %d schedules explored, %d violations", protocol, rep.Nodes, len(rep.Violations))
		}
	}
}

func TestBuildFactoryRejectsUnknownProtocol(t *testing.T) {
	if _, err := buildFactory("nope", 2, 0); err == nil {
		t.Error("an unknown protocol got a factory")
	}
}
