package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/electd"
	"repro/internal/regstore"
	"repro/internal/transport"
)

// TestDemo: the all-in-one mode elects over both socket substrates, reached
// through a transport.Spec that carries nothing but the name — the same
// spec main builds from -transport.
func TestDemo(t *testing.T) {
	for _, name := range []string{transport.SpecTCP, transport.SpecUDP} {
		if err := runDemo(transport.Spec{Name: name}, 3, 4, 2, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestDemoUnknownTransport: a misspelt -transport is an error that names
// it, not a silent default.
func TestDemoUnknownTransport(t *testing.T) {
	err := runDemo(transport.Spec{Name: "bogus"}, 3, 4, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want one naming the transport", err)
	}
}

// TestDemoRejectsParticipantsBeyondOwners: -demo -k 8161 asks for
// participant ids past regstore.MaxOwners, whose cells every replica would
// drop; it is an error (main exits non-zero), not an election outside the
// model.
func TestDemoRejectsParticipantsBeyondOwners(t *testing.T) {
	if err := runDemo(transport.Spec{Name: transport.SpecTCP}, 3, regstore.MaxOwners+1, 1, 1); err == nil {
		t.Fatalf("k=%d accepted", regstore.MaxOwners+1)
	}
}

// TestElectAgainstCluster: client mode dials running servers by address
// and elects on them, as a separate -elect process would.
func TestElectAgainstCluster(t *testing.T) {
	spec := transport.Spec{Name: transport.SpecTCP}
	cl, err := electd.NewClusterSpec(spec, 3, electd.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := runElect(spec, cl.Addrs(), 4, 2, 1); err != nil {
		t.Fatal(err)
	}
}

// TestElectReportsShedElection: a replica that admits one live election
// per shard sheds most of 40 concurrent ones with busy replies. Client
// mode reports a shed election as its error and returns, instead of the
// busy reply crashing the process.
func TestElectReportsShedElection(t *testing.T) {
	spec := transport.Spec{Name: transport.SpecTCP}
	cl, err := electd.NewClusterSpec(spec, 3, electd.ClusterOptions{
		Server: electd.ServerOptions{MaxLivePerShard: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = runElect(spec, cl.Addrs(), 4, 40, 1)
	var busy *electd.BusyError
	if !errors.As(err, &busy) || !strings.Contains(err.Error(), "shed by a busy replica") {
		t.Fatalf("err = %v, want a shed election", err)
	}
}
