package transport

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestLoopbackListenerLifecycle drives the in-memory listener beneath a
// loopback TCPListener through its whole life, a hundred times over: a dial
// reaches the handler, Recover after Crash binds the same loop:N address
// again, a crashed or closed address refuses dials, and nothing — bound
// address, accept loop, connection loops — outlives the cycles.
func TestLoopbackListenerLifecycle(t *testing.T) {
	nw := NewLoopback()
	got := make(chan *wire.Msg, 1)
	echo := func(t *testing.T, addr string) Conn {
		t.Helper()
		conn, err := nw.Dial(addr, func(_ Conn, m *wire.Msg) { got <- m })
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		if err := conn.Send(&wire.Msg{Kind: wire.KindCollect, Call: 1, Reg: "r"}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never answered", addr)
		}
		return conn
	}
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 100; cycle++ {
		ln, err := nw.Listen(echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr()
		first := echo(t, addr)
		ln.Crash()
		if _, err := nw.Dial(addr, nil); err == nil {
			t.Fatalf("cycle %d: dial to crashed %s succeeded", cycle, addr)
		}
		if err := ln.(Recoverer).Recover(); err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		if ln.Addr() != addr {
			t.Fatalf("cycle %d: recovered at %s, was %s", cycle, ln.Addr(), addr)
		}
		second := echo(t, addr)
		if err := ln.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Dial(addr, nil); err == nil {
			t.Fatalf("cycle %d: dial to closed %s succeeded", cycle, addr)
		}
		first.Close()  //nolint:errcheck // severed by the crash already
		second.Close() //nolint:errcheck // severed by the close already
	}
	nw.mu.Lock()
	bound := len(nw.listeners)
	nw.mu.Unlock()
	if bound != 0 {
		t.Fatalf("%d addresses still bound after every listener closed", bound)
	}
	// Connection loops notice a closed pipe on their own goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 100 listener cycles, %d after", before, after)
	}
}
