package main

import (
	"strings"
	"testing"

	"repro/internal/electd"
	"repro/internal/transport"
)

// TestDemo: the all-in-one mode elects over both socket substrates, reached
// through a transport.Spec that carries nothing but the name — the same
// spec main builds from -transport.
func TestDemo(t *testing.T) {
	for _, name := range []string{transport.SpecTCP, transport.SpecUDP} {
		if err := runDemo(transport.Spec{Name: name}, 3, 4, 2, 1, "poisonpill"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestDemoUnknownTransport: a misspelt -transport is an error that names
// it, not a silent default.
func TestDemoUnknownTransport(t *testing.T) {
	err := runDemo(transport.Spec{Name: "bogus"}, 3, 4, 1, 1, "poisonpill")
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want one naming the transport", err)
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
	if err := runElect(spec, cl.Addrs(), 4, 2, 1, "poisonpill"); err != nil {
		t.Fatal(err)
	}
}
