// Daemon: the streaming-service deployment shape, end to end in one
// process.
//
// The paper's Fig. 16 places the predictor on the SMW, consuming the live
// aggregate HSS log stream as a long-running service. This example boots
// that service (internal/serve — the core of cmd/aarohid) on loopback
// ports, attaches a prediction subscriber over the HTTP NDJSON stream,
// replays a generated cluster log over the TCP line protocol, and drains
// gracefully — printing each prediction with its achieved lead time and the
// final /statusz counters.
//
// Run: go run ./examples/daemon
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	aarohi "repro"
	"repro/internal/loggen"
	"repro/internal/serve"
)

func main() {
	run, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 7,
		Duration: 2 * time.Hour, Nodes: 16, Failures: 3,
		BenignPerMinute: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	lines := run.Lines()
	fmt.Printf("cluster log: %d events, %d injected failures\n\n", len(lines), len(run.Failures))

	// The service: sharded Manager behind TCP + HTTP front ends, and an
	// in-memory model registry whose boot version is the Manager's model
	// (the admin API — POST /model, GET /models — is on).
	mgr, err := aarohi.NewManager(run.Dialect.Chains(), run.Dialect.Inventory(), aarohi.Options{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	srv := aarohi.NewServer(mgr, aarohi.ServeConfig{QueueSize: 1024, Overflow: aarohi.OverflowBlock})
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aarohid core up: tcp=%s http=%s\n\n", srv.TCPAddr(), srv.HTTPAddr())

	// A prediction consumer on the HTTP subscription stream — exactly what
	// an external mitigation agent would run.
	ctx := context.Background()
	client := &aarohi.ServeClient{Base: "http://" + srv.HTTPAddr().String()}
	outs, errc, err := client.Predictions(ctx)
	if err != nil {
		log.Fatal(err)
	}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		lastPrediction := map[string]time.Time{}
		for out := range outs {
			if p := out.Prediction; p != nil {
				fmt.Printf("PREDICTION node=%s chain=%s at %s\n",
					p.Node, p.ChainName, p.MatchedAt.Format(time.RFC3339))
				lastPrediction[p.Node] = p.MatchedAt
			}
			if f := out.Failure; f != nil {
				if at, ok := lastPrediction[f.Node]; ok {
					fmt.Printf("FAILURE    node=%s — predicted %s earlier\n",
						f.Node, f.Time.Sub(at).Round(time.Second))
				} else {
					fmt.Printf("FAILURE    node=%s — unpredicted\n", f.Node)
				}
			}
		}
	}()

	// The load source: the TCP line protocol, as `loggen -stream` would
	// feed a real daemon.
	conn, err := serve.DialLines(srv.TCPAddr().String())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := serve.StreamLines(ctx, conn, lines, 0); err != nil {
		log.Fatal(err)
	}
	if err := conn.Close(); err != nil { // barrier: all lines accepted
		log.Fatal(err)
	}

	// Graceful drain: flush everything through the Manager, close the
	// subscription stream, then report.
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	<-consumed
	if err, ok := <-errc; ok && err != nil {
		log.Fatal(err)
	}

	st := srv.Status()
	fmt.Printf("\n--- final stats ---\n")
	fmt.Printf("lines accepted/dropped: %d/%d (queue cap %d, policy %s)\n",
		st.LinesAccepted, st.LinesDropped, st.QueueCapacity, st.Overflow)
	fmt.Printf("manager scanned %d lines, %d FC-related tokens, %d nodes, %d matches\n",
		st.Manager.LinesScanned, st.Manager.Tokens, st.Manager.Nodes, st.Manager.Parser.Matches)
}
