package lifecycle

import (
	"testing"
	"time"

	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/serve/shard"
)

// newShards builds n memory-only shards over the XC30 dialect.
func newShards(t *testing.T, n int) []*shard.Local {
	t.Helper()
	d := loggen.DialectXC30
	shards := make([]*shard.Local, n)
	for i := range shards {
		m, err := predictor.NewManager(d.Chains(), d.Inventory(), predictor.Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = shard.New(m, shard.Config{
			Index:   i,
			Logf:    t.Logf,
			Publish: func(predictor.Output) {},
		})
	}
	return shards
}

// The Group is the one registry of adopted shards: a peer is claimed once,
// a forwarded line that races the takeover waits for it to land, lookups
// resolve the peer's own shard index, every shard is visited boot-first in
// (peer, index) order, and nothing joins once ingest has finished.
func TestGroupAdoption(t *testing.T) {
	boot := newShards(t, 1)
	boot[0].Start()
	g := NewGroup(boot, Config{Logf: t.Logf})

	if !g.Claim("b") {
		t.Fatal("first claim of b refused")
	}
	if g.Claim("b") {
		t.Fatal("second claim of b accepted: a peer is adopted at most once")
	}
	if sh := g.Adopted("b", 0, 0); sh != nil {
		t.Fatal("b resolved before its adoption landed")
	}

	adoptedB, adoptedA := newShards(t, 2), newShards(t, 1)
	got := make(chan *shard.Local)
	go func() { got <- g.Adopted("b", 1, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond) // let the lookup start waiting
	g.Adopt("b", adoptedB)
	if sh := <-got; sh != adoptedB[1] {
		t.Fatalf("waiting lookup of b/1 got %p, want %p", sh, adoptedB[1])
	}
	if sh := g.Adopted("b", 2, 0); sh != nil {
		t.Fatal("b/2 resolved, but b had two shards")
	}
	if !g.Claim("a") {
		t.Fatal("claim of a refused")
	}
	g.Adopt("a", adoptedA)

	want := []*shard.Local{boot[0], adoptedA[0], adoptedB[0], adoptedB[1]}
	all := g.Shards()
	if len(all) != len(want) {
		t.Fatalf("Shards() = %d shards, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("Shards()[%d] is not the boot-first (peer, index) order", i)
		}
	}
	rows := g.AdoptedStatus()
	if len(rows) != 2 || rows[0].Peer != "a" || rows[0].Shards != 1 || rows[1].Peer != "b" || rows[1].Shards != 2 {
		t.Fatalf("adopted rows %+v, want a:1 then b:2", rows)
	}

	// d's takeover is in flight when ingest finishes: its shards close
	// themselves instead of joining a Group that will not finish them.
	if !g.Claim("d") {
		t.Fatal("claim of d refused")
	}
	g.FinishIngest(true)
	if g.Claim("c") {
		t.Fatal("claim accepted after ingest finished")
	}
	g.Adopt("d", newShards(t, 1))
	if n := len(g.Shards()); n != len(want) {
		t.Fatalf("a shard adopted after FinishIngest joined the Group (%d shards)", n)
	}
	g.Close()
}
