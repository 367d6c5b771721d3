package serve

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/wal"
)

// BenchmarkServeIngest is an in-process smoke benchmark of the full
// steady-state ingest path — the edge, queue, WAL framing/append (in the wal
// variants), sharded scan, parse — in bytes of raw log per second. Lines go
// in as the transports hand them over: one chunk per 64 KiB framer read,
// through the function both transports call, so every row but fwd measures
// the edge dropping lines where they land; the journaled rows journal their
// dropped lines as discard marks, and only the kept lines take the queue
// path:
//
//	go test -run '^$' -bench BenchmarkServeIngest -benchmem ./internal/serve
//
// End-to-end numbers come from the bench/ module; the zero-allocation
// guarantees are AllocsPerRun tests (shard.TestSubmitBatchAllocs,
// TestForwardAllocs).
func BenchmarkServeIngest(b *testing.B) {
	log, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 7, Duration: 45 * time.Minute,
		Nodes: 16, Failures: 6, BenignPerMinute: 20, AnomalyRate: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	lines := log.Lines()
	var totalBytes int64
	for _, l := range lines {
		totalBytes += int64(len(l))
	}
	avg := totalBytes / int64(len(lines))
	// The framer hands the layers below one read's lines at a time.
	var chunks [][]string
	for start, bytes := 0, 0; start < len(lines); {
		end := start
		for bytes = 0; end < len(lines) && bytes+len(lines[end])+1 <= 64<<10; end++ {
			bytes += len(lines[end]) + 1
		}
		chunks = append(chunks, lines[start:end])
		start = end
	}

	run := func(b *testing.B, cfg Config) {
		mgr, err := predictor.NewManager(
			loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(),
			predictor.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		cfg.TCPAddr, cfg.HTTPAddr = "off", "off"
		cfg.Overflow = Block
		s := New(mgr, cfg)
		if err := s.Start(); err != nil {
			b.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				b.Fatal(err)
			}
		}()
		if !s.pipe.BeginProduce() {
			b.Fatal("server already draining")
		}
		defer s.pipe.EndProduce()

		b.SetBytes(avg)
		b.ReportAllocs()
		b.ResetTimer()
		for i, k := 0, 0; i < b.N; k++ {
			c := chunks[k%len(chunks)]
			c = c[:min(len(c), b.N-i)]
			s.edge.ingest(c)
			i += len(c)
		}
		// Barrier: every enqueued line fully processed — through the router
		// and every shard's manager — before the clock stops.
		if err := s.router.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}

	b.Run("nowal", func(b *testing.B) {
		run(b, Config{})
	})
	b.Run("wal", func(b *testing.B) {
		run(b, Config{DataDir: b.TempDir()})
	})
	// The journal under the other two sync policies ("wal" is SyncBatch).
	// Under SyncAlways each chunk's marks commit on the ingest goroutine
	// and the pump commits the kept lines separately.
	b.Run("wal-always", func(b *testing.B) {
		run(b, Config{DataDir: b.TempDir(), Fsync: wal.SyncAlways})
	})
	b.Run("wal-off", func(b *testing.B) {
		run(b, Config{DataDir: b.TempDir(), Fsync: wal.SyncOff})
	})
	// The consistent-hash router in front of one local shard, no
	// persistence: the batch is handed through whole, whose tax should be
	// nil against nowal.
	b.Run("shards1", func(b *testing.B) {
		run(b, Config{Shards: 1})
	})
	// Two shards: the router splits each batch and submits both shares on
	// the pump.
	b.Run("shards2", func(b *testing.B) {
		run(b, Config{Shards: 2})
	})
	// Two shards fsyncing every batch: their syncs run one after the other.
	b.Run("shards2-wal-always", func(b *testing.B) {
		run(b, Config{Shards: 2, DataDir: b.TempDir(), Fsync: wal.SyncAlways})
	})
	// Forwarded hop: cluster mode with a static table that omits this
	// daemon, so every line makes the one cross-daemon hop — placement
	// lookup, per-owner batching, buffered write, one flush per batch. The
	// peer is a discard sink; this measures the sender's side of the hop,
	// which must stay allocation-free in steady state.
	b.Run("fwd", func(b *testing.B) {
		benchForwardedHop(b, lines, avg)
	})
}

// benchForwardedHop is BenchmarkServeIngest/fwd: a daemon that owns no slice
// of the ring spraying every line at one static peer. It cannot share run()
// above because cluster mode requires the TCP line listener (the forwarding
// plane rides it) and the barrier is the forwarded-out counter, not a shard
// flush — nothing ever reaches a local shard.
func benchForwardedHop(b *testing.B, lines []string, avg int64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
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

	mgr, err := predictor.NewManager(
		loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(),
		predictor.Options{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	s := New(mgr, Config{
		TCPAddr: "127.0.0.1:0", HTTPAddr: "off", Overflow: Block,
		Cluster: &ClusterConfig{
			Name:   "bench",
			Static: []StaticPeer{{Name: "peer", LineAddr: ln.Addr().String()}},
		},
	})
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	}()
	if !s.pipe.BeginProduce() {
		b.Fatal("server already draining")
	}
	defer s.pipe.EndProduce()

	b.SetBytes(avg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pipe.Ingest(lines[i%len(lines)])
	}
	// Barrier: every enqueued line counted out the forwarding client before
	// the clock stops. The discard peer never pushes back, so the only
	// acceptable terminal states are forwarded or failed — and a failure
	// fails the benchmark.
	deadline := time.Now().Add(30 * time.Second)
	for s.cluster.forwardedOut.Load() < int64(b.N) {
		if n := s.cluster.forwardErrs.Load(); n > 0 {
			b.Fatalf("forward errors: %d", n)
		}
		if n := s.cluster.misrouted.Load(); n > 0 {
			b.Fatalf("misrouted lines: %d", n)
		}
		if time.Now().After(deadline) {
			b.Fatalf("forwarded %d of %d lines after 30s",
				s.cluster.forwardedOut.Load(), b.N)
		}
		time.Sleep(200 * time.Microsecond)
	}
	b.StopTimer()
}
