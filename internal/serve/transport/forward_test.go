package transport

import (
	"io"
	"net"
	"testing"
)

// TestForwardAllocs: once its connection is up, Forward writes a batch with
// no allocation — a map hit, buffered writes, one flush.
func TestForwardAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(io.Discard, conn)
				conn.Close()
			}()
		}
	}()
	f := NewForwarder(Config{}, "self")
	defer f.Close()
	addr := ln.Addr().String()
	batch := []string{
		"2015-03-14T04:58:57.640Z c0-0c2s0n2 DVS: verify_filesystem: excluding server",
		"2015-03-14T04:58:57.922Z c0-0c2s0n3 Lustre: lock timed out on OST",
		"2015-03-14T04:58:58.017Z c0-0c2s0n1 kernel: watchdog reset",
	}
	if err := f.Forward(addr, batch); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(500, func() {
		if err := f.Forward(addr, batch); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Forward: %.2f allocs per batch, want 0", a)
	}
}
