package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/predictor"
	"repro/internal/serve"
)

// layerBudget is how long each isolated layer benchmark repeats its pass, per
// second of run length.
const layerBudget = 10 * time.Millisecond

// traceRun produces the per-layer metrics of one workload:
//
//  1. each layer's exported entry points are timed in isolation on the
//     workload's own batches (layers.go);
//  2. transport → pipeline → shard are composed in this process and driven
//     over loopback twice, without and with span recording (composed.go);
//     the spans go to trace-<workload>.json;
//  3. an in-process serve.Server shows what the hub and the HTTP stream add
//     between publish and a subscriber's read;
//  4. real daemons run a short paced and saturate phase while their /statusz
//     is sampled, for what only a running daemon or cluster can show.
//
// A layer the workload does not exercise reports 0 for its work.
func traceRun(e *env, w *workload, seed int64, seconds int) (record, error) {
	rec := record{Workload: w.name, Seed: seed, Seconds: seconds, Trace: 1}
	m := map[string]metricValue{}
	set := func(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

	durable := w.peers[0].durable
	clustered := len(w.peers) > 1
	arbitrated := w.alertsPoller

	blast := w.blastLines(seconds) / 5
	paced := int(w.pacedRate) // one second at the workload's rate
	s, err := renderStream(w.stream, seed, blast+paced)
	if err != nil {
		return rec, err
	}
	in := newLayerInput(s, time.Duration(seconds)*layerBudget, e.scratch)

	// 1. Layers in isolation.
	tcp, err := in.transportTCP()
	if err != nil {
		return rec, err
	}
	set("transport.tcp_ns_per_line", tcp.ns, "ns")
	set("transport.tcp_allocs_per_line", tcp.allocs, "count")
	set("pipeline.enqueue_ns_per_line", in.pipelineEnqueue().ns, "ns")
	set("shard.routekey_ns_per_line", in.routeKey().ns, "ns")

	submitMem, _, err := in.shardSubmit(false)
	if err != nil {
		return rec, err
	}
	set("shard.submit_mem_ns_per_line", submitMem.ns, "ns")
	var submitWal cost
	var snapshotMs float64
	var ws walStats
	if durable {
		if submitWal, snapshotMs, err = in.shardSubmit(true); err != nil {
			return rec, err
		}
		if ws, err = in.walLayer(); err != nil {
			return rec, err
		}
	}
	set("shard.submit_wal_ns_per_line", submitWal.ns, "ns")
	set("wal.append_batch_ns_per_line", ws.appendBatch.ns, "ns")
	set("wal.allocs_per_line", ws.appendBatch.allocs, "count")
	set("wal.bytes_per_line", ws.bytesPerLine, "ratio")
	set("wal.sync_ms_p50", median(ws.syncMs), "ms")
	set("wal.sync_ms_max", maxOf(ws.syncMs), "ms")
	set("wal.replay_ns_per_line", ws.replayNs, "ns")
	set("lifecycle.snapshot_ms", snapshotMs, "ms")

	for _, n := range []int{1, 2, 4} {
		c, rs, err := in.router(n)
		if err != nil {
			return rec, err
		}
		set(fmt.Sprintf("shard.router_s%d_ns_per_line", n), c.ns, "ns")
		if n == 4 {
			set("shard.skew", rs.skew, "ratio")
			set("shard.router_pending_max", float64(rs.pendingMax), "lines")
		}
	}

	ps, err := in.predictorLayer()
	if err != nil {
		return rec, err
	}
	set("predictor.batch_ns_per_line", ps.batch.ns, "ns")
	set("predictor.allocs_per_line", ps.batch.allocs, "count")
	set("predictor.flush_us", ps.flushUs, "us")
	set("predictor.worker_skew", ps.workerSkew, "ratio")

	ls, err := in.lexAndParse()
	if err != nil {
		return rec, err
	}
	set("lexgen.parseline_ns_per_line", ls.parseLine.ns, "ns")
	set("lexgen.scan_benign_ns", ls.scanBenign.ns, "ns")
	set("lexgen.scan_fc_ns", ls.scanFC.ns, "ns")
	set("lexgen.discard_share", float64(ls.stats.Discarded)/float64(ls.stats.LinesScanned), "ratio")
	set("lexgen.table_bytes", float64(ls.tableBytes), "bytes")
	set("parser.feed_ns_per_token", ls.feed.ns, "ns")
	skip := 0.0
	if ls.stats.Parser.Tokens > 0 {
		skip = float64(ls.stats.Parser.Skipped) / float64(ls.stats.Parser.Tokens)
	}
	set("parser.skip_share", skip, "ratio")
	set("parser.timeout_resets", float64(ls.stats.Parser.TimeoutResets), "count")
	set("parser.matches", float64(ls.stats.Parser.Matches), "count")

	var as arbiterStats
	if arbitrated {
		if as, err = in.arbiterLayer(); err != nil {
			return rec, err
		}
	}
	set("arbiter.observe_ns_per_line", as.observe.ns, "ns")
	set("arbiter.alerts_us_per_query", as.alertUs, "us")
	set("arbiter.nodes_tracked", float64(as.nodes), "count")

	ringNs, peerMapNs := in.ringLookups()
	set("ring.lookup_ns", ringNs, "ns")
	if !clustered {
		peerMapNs = 0
	}
	set("ring.peermap_lookup_ns", peerMapNs, "ns")
	var fwd cost
	if clustered {
		if fwd, err = in.forwardSend(); err != nil {
			return rec, err
		}
	}
	set("forward.send_ns_per_line", fwd.ns, "ns")
	set("forward.allocs_per_line", fwd.allocs, "count")

	// 2. The composition, untraced then traced.
	plain, err := runComposed(in, s, w, blast, 0, false)
	if err != nil {
		return rec, err
	}
	traced, err := runComposed(in, s, w, blast, paced, true)
	if err != nil {
		return rec, err
	}
	sum := summarize(traced.spans, traced.blastEndNs, blast)
	tracePath := filepath.Join(e.root, buildDir, "trace-"+w.name+".json")
	if err := writeTrace(tracePath, w, seed, sum, traced.spans); err != nil {
		return rec, err
	}
	set("transport.ingest_blocked_share", sum.IngestBlockedShare, "ratio")
	set("pipeline.sink_busy_share", sum.SinkBusyShare, "ratio")
	set("pipeline.batch_lines_p50", median(traced.batchLines), "lines")
	set("pipeline.queue_depth_p50", median(traced.depth), "lines")
	set("pipeline.queue_depth_max", maxOf(traced.depth), "lines")
	set("pipeline.dropped_lines", float64(traced.dropped), "lines")
	plainRate := float64(blast) / plain.blastSeconds
	tracedRate := float64(blast) / traced.blastSeconds
	set("trace.overhead_share", 1-tracedRate/plainRate, "ratio")

	// 3. Hub and HTTP stream.
	hubUs, err := hubProbe(in, s, w)
	if err != nil {
		return rec, err
	}
	set("hub.publish_to_read_p50_us", hubUs, "us")

	// 4. Real daemons, sampled. The cluster's peers get data directories
	// here, which the measured workload leaves out (see README.md, "Why
	// cluster-fwd runs without journals"): WAL shipping is observed, not
	// bounded.
	sampled := *w
	if clustered {
		sampled.peers = nil
		for _, p := range w.peers {
			p.durable = true
			sampled.peers = append(sampled.peers, p)
		}
		sampled.pacedRate, sampled.blastPerSecond = 80000, 150000
	}
	res, err := runE2E(e, &sampled, seed, max(seconds/4, 2), e2eOptions{setups: 1, restarts: 1, sampling: true})
	if err != nil {
		return rec, err
	}
	lines := float64(res.pacedLines + res.blastLines)
	set("hub.predictions_out", float64(res.expected-res.verdict.missing), "count")
	set("hub.subscriber_drops", float64(res.subDrops), "count")
	set("forward.share", float64(res.forwardedOut)/lines, "ratio")
	set("forward.errors", float64(res.forwardErrs), "count")
	hop := 0.0
	if clustered && len(res.latencyBySub[0]) > 0 && len(res.latencyBySub[1]) > 0 {
		hop = median(res.latencyBySub[1]) - median(res.latencyBySub[0])
	}
	set("forward.hop_latency_p50_us", hop, "us")
	set("ship.lag_records_max", float64(res.shipLagMax), "records")
	shipBytes := 0.0
	if res.journaled0 > 0 {
		shipBytes = float64(res.shipBytes) / float64(res.journaled0)
	}
	set("ship.bytes_per_line", shipBytes, "bytes")
	set("lifecycle.boot_s", res.bootSeconds, "s")
	set("lifecycle.replay_lines_per_s", res.replayRate, "lines/s")
	set("predict_latency_p99_us", segmentQuantile(res.latencyUs, 0.99), "us")
	set("loadgen.lateness_p99_us", res.latenessP99(), "us")
	set("loadgen.cpu_share", res.loadgenCPU, "ratio")

	for _, ex := range res.verdict.examples {
		e.logf("%s", ex)
	}
	fmt.Printf("%s: host slowdown %.4f during the daemon run; every per-layer metric is as measured\n", w.name, slowdown(res.calib))
	fmt.Printf("%s: trace written to %s (%d spans); self time per line:\n", w.name, tracePath, len(traced.spans))
	for _, l := range sum.Layers {
		fmt.Printf("  %-22s %8.1f ns/line over %d spans\n", l.Name, l.NsPerLine, l.Spans)
	}
	fmt.Printf("  connection handler wall %.1f ns/line, pump wall %.1f ns/line; composed %.0f lines/s untraced, %.0f traced\n",
		float64(sum.ConnWallNs)/float64(sum.Lines), float64(sum.PumpWallNs)/float64(sum.Lines), plainRate, tracedRate)

	rec.Invalid = res.invalid
	rec.result = result{Correct: res.failed() == 0, Attempted: res.attempted(), Failed: res.failed(), Metrics: m}
	return rec, nil
}

// hubProbe runs a whole serve.Server in this process, feeds it one paced
// second of the workload and follows its predictions twice: through an
// in-process Subscription and through GET /predictions. The median distance
// between the two reads of the same prediction is what JSON encoding, the
// HTTP flush and the loopback add after the hub has published.
func hubProbe(in *layerInput, s *stream, w *workload) (float64, error) {
	mgr, err := predictor.NewManager(in.model.chains, in.model.templates, predictor.Options{}, 0)
	if err != nil {
		return 0, err
	}
	srv := serve.New(mgr, serve.Config{})
	if err := srv.Start(); err != nil {
		return 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a probe server has nothing to lose
	}()
	local := srv.Subscribe(1 << 14)
	var mu sync.Mutex
	publishedAt := map[predKey]time.Time{}
	localDone := make(chan struct{})
	go func() {
		defer close(localDone)
		for out := range local.Out() {
			if p := out.Prediction; p != nil {
				now := time.Now()
				mu.Lock()
				publishedAt[predKey{p.Node, p.ChainName, p.MatchedAt.UnixMilli()}] = now
				mu.Unlock()
			}
		}
	}()
	remote, err := subscribe(srv.HTTPAddr().String(), "")
	if err != nil {
		return 0, err
	}
	snd, err := dialSender(srv.TCPAddr().String(), s)
	if err != nil {
		remote.close()
		return 0, err
	}
	_, _, err = snd.paced(0, int(w.pacedRate), w.pacedRate)
	snd.conn.Close()
	if err == nil {
		// The server drains on Shutdown; give the stream a moment to carry
		// the last predictions first.
		time.Sleep(50 * time.Millisecond)
	}
	got := remote.take()
	remote.close()
	local.Cancel()
	<-localDone
	if err != nil {
		return 0, err
	}
	var deltas []float64
	for _, r := range got {
		k, isPred, err := r.decode()
		if err != nil {
			return 0, err
		}
		mu.Lock()
		at, ok := publishedAt[k]
		mu.Unlock()
		if isPred && ok {
			deltas = append(deltas, float64(r.at.Sub(at))/float64(time.Microsecond))
		}
	}
	return median(deltas), nil
}
