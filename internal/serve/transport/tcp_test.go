package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestDeclinedHijackFirstLineGoesToBatch: when a hijacker declines a
// connection, the first line it peeled off goes to the batch function like
// every other client line, not to Ingestor.Ingest.
func TestDeclinedHijackFirstLineGoesToBatch(t *testing.T) {
	ing := &stubIngestor{}
	tcp := NewTCP(Config{MaxLineLen: 1 << 20, Logf: t.Logf}, ing, time.Minute)
	var mu sync.Mutex
	var batched []string
	tcp.SetHijacker(func(string) HijackHandler { return nil })
	tcp.SetBatchIngest(func(lines []string) int {
		mu.Lock()
		defer mu.Unlock()
		batched = keep(batched, lines)
		return len(lines)
	})
	if err := tcp.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ing.draining.Store(true) // the listener's close is expected
		tcp.StopAccepting()
	}()

	conn, err := net.Dial("tcp", tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("first\nsecond\nthird\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(10 * time.Second)
	for tcp.Total() != 1 || tcp.Open() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection handler did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(batched) != "[first second third]" || len(ing.lines) != 0 {
		t.Fatalf("batch function got %q, Ingest got %q", batched, ing.lines)
	}
}
