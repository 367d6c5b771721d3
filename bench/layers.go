package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/predictor"
	"repro/internal/ring"
	"repro/internal/serve/pipeline"
	"repro/internal/serve/shard"
	"repro/internal/serve/transport"
	"repro/internal/wal"
)

// batchLines is the daemon's default -ingest-batch: the layer benchmarks
// hand each layer the groups the pump would.
const batchLines = 256

// layerPasses is how many consecutive passes of the block the layer
// benchmarks keep rendered. A layer that is fed for longer wraps around, and
// its log time steps back by that many days once per wrap.
const layerPasses = 3

// blockPass is one pass of a workload's block in the shapes the layers'
// entry points take.
type blockPass struct {
	raw     []byte     // as sent on the wire
	lines   []string   // one string per line
	batches [][]string // lines cut into pump-sized groups
	records [][][]byte // batches as journal payloads
}

// layerInput is what the layer benchmarks are fed.
type layerInput struct {
	model  loggenModel
	passes []*blockPass
	nodes  []string // routing key of every line of a pass
	budget time.Duration
	dir    string // scratch directory for anything that touches disk
}

func newLayerInput(s *stream, budget time.Duration, dir string) *layerInput {
	in := &layerInput{model: s.model, budget: budget, dir: dir}
	n := s.lines()
	for p := 0; p < layerPasses; p++ {
		bp := &blockPass{raw: append([]byte(nil), s.patch(p, 0, n)...)}
		s.each(p*n, (p+1)*n, func(_ int, line string) { bp.lines = append(bp.lines, line) })
		for a := 0; a < n; a += batchLines {
			b := min(a+batchLines, n)
			bp.batches = append(bp.batches, bp.lines[a:b])
			recs := make([][]byte, 0, b-a)
			for _, line := range bp.lines[a:b] {
				recs = append(recs, []byte(line))
			}
			bp.records = append(bp.records, recs)
		}
		in.passes = append(in.passes, bp)
	}
	for _, line := range in.passes[0].lines {
		in.nodes = append(in.nodes, shard.RouteKey(line))
	}
	return in
}

// pass returns the input of the i-th pass a layer is fed.
func (in *layerInput) pass(i int) *blockPass { return in.passes[i%len(in.passes)] }

// lines is the number of lines in one pass.
func (in *layerInput) lines() int { return len(in.nodes) }

// cost is what one unit of work took.
type cost struct {
	ns     float64
	allocs float64
	units  int
}

// measure calls pass with 0, 1, 2, … (it reports how many units it did) until
// the budget is spent and returns the mean cost per unit. Mallocs are counted
// process-wide: the harness keeps quiet while a layer is measured.
func measure(budget time.Duration, pass func(i int) int) cost {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	units := 0
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		units += pass(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return cost{
		ns:     float64(elapsed) / float64(units),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(units),
		units:  units,
	}
}

// countingIngestor is the stub the transport is measured against: it accepts
// every line and counts it.
type countingIngestor struct{ n atomic.Int64 }

func (c *countingIngestor) BeginProduce() bool { return true }
func (c *countingIngestor) EndProduce()        {}
func (c *countingIngestor) Ingest(string) bool { c.n.Add(1); return true }
func (c *countingIngestor) Draining() bool     { return false }

var quietTransport = transport.Config{MaxLineLen: 1 << 20, Logf: func(string, ...any) {}}

// transportTCP times the TCP line listener alone: bytes in over loopback,
// lines out into a counting stub.
func (in *layerInput) transportTCP() (cost, error) {
	stub := &countingIngestor{}
	t := transport.NewTCP(quietTransport, stub, time.Minute)
	if err := t.Start("127.0.0.1:0"); err != nil {
		return cost{}, err
	}
	defer t.StopAccepting()
	defer t.ForceClose()
	c, err := net.Dial("tcp", t.Addr().String())
	if err != nil {
		return cost{}, err
	}
	defer c.Close()
	var werr error
	res := measure(in.budget, func(i int) int {
		want := stub.n.Load() + int64(in.lines())
		if _, err := c.Write(in.pass(i).raw); err != nil {
			werr = err
			return in.lines()
		}
		for stub.n.Load() < want {
			runtime.Gosched()
		}
		return in.lines()
	})
	return res, werr
}

// nopSink discards what the pump hands it.
type nopSink struct{}

func (nopSink) ProcessLine(string)    {}
func (nopSink) ProcessBatch([]string) {}

// pipelineEnqueue times queue + batch cut alone: Ingest into a pipeline whose
// sink does nothing, until the pump has drained everything.
func (in *layerInput) pipelineEnqueue() cost {
	return measure(in.budget, func(i int) int {
		p := pipeline.New(pipeline.Config{QueueSize: 4096, BatchMax: batchLines}, nopSink{})
		p.Start()
		p.BeginProduce()
		for _, line := range in.pass(i).lines {
			p.Ingest(line)
		}
		p.EndProduce()
		p.StartDrain()
		p.CloseQueue()
		<-p.Done()
		return in.lines()
	})
}

func (in *layerInput) routeKey() cost {
	sink := 0
	c := measure(in.budget, func(i int) int {
		for _, line := range in.pass(i).lines {
			sink += len(shard.RouteKey(line))
		}
		return in.lines()
	})
	runtime.KeepAlive(sink)
	return c
}

// newLocal builds a started shard over a fresh manager. dir "" keeps it in
// memory; otherwise it journals under dir with the daemon's default policy.
func (in *layerInput) newLocal(index int, dir string) (*shard.Local, error) {
	m, err := predictor.NewManager(in.model.chains, in.model.templates, predictor.Options{}, 0)
	if err != nil {
		return nil, err
	}
	l := shard.New(m, shard.Config{
		Index:   index,
		Dir:     dir,
		Fsync:   wal.SyncBatch,
		Logf:    func(string, ...any) {},
		Publish: func(predictor.Output) {},
	})
	l.Start()
	if err := l.Open(nil); err != nil {
		m.Close()
		_ = l.Close() // unwinding: the open error is the one to surface
		return nil, err
	}
	return l, nil
}

func closeLocal(l *shard.Local) {
	l.FinishIngest(true)
	_ = l.Close() // a benchmark shard's journal is scratch
}

// shardSubmit times Local.SubmitBatch + Flush, in memory or journaled. With
// a journal it also times one Snapshot of the state the pass left behind.
func (in *layerInput) shardSubmit(durable bool) (c cost, snapshotMs float64, err error) {
	dir := ""
	if durable {
		dir = filepath.Join(in.dir, "shard-submit")
		defer os.RemoveAll(dir)
	}
	l, err := in.newLocal(0, dir)
	if err != nil {
		return c, 0, err
	}
	defer closeLocal(l)
	c = measure(in.budget, func(i int) int {
		for _, b := range in.pass(i).batches {
			l.SubmitBatch(b)
		}
		if ferr := l.Flush(); ferr != nil {
			err = ferr
		}
		return in.lines()
	})
	if durable && err == nil {
		start := time.Now()
		err = l.Snapshot()
		snapshotMs = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return c, snapshotMs, err
}

// routerStats is what one Router run saw besides its cost.
type routerStats struct {
	skew       float64 // max ÷ mean lines per shard
	pendingMax int
}

// router times Router.ProcessBatch + Flush over n in-memory shards.
func (in *layerInput) router(n int) (cost, routerStats, error) {
	var rs routerStats
	locals := make([]*shard.Local, n)
	for i := range locals {
		l, err := in.newLocal(i, "")
		if err != nil {
			return cost{}, rs, err
		}
		locals[i] = l
	}
	r := shard.NewRouter(locals)
	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		maxPending := 0
		for {
			select {
			case <-stop:
				sampled <- maxPending
				return
			default:
			}
			for i := range locals {
				maxPending = max(maxPending, r.Pending(i))
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var ferr error
	c := measure(in.budget, func(i int) int {
		for _, b := range in.pass(i).batches {
			r.ProcessBatch(b)
		}
		if err := r.Flush(); err != nil {
			ferr = err
		}
		return in.lines()
	})
	close(stop)
	rs.pendingMax = <-sampled
	var total, most int64
	for _, l := range locals {
		lines := l.Stats().Lines
		total += lines
		most = max(most, lines)
	}
	if total > 0 {
		rs.skew = float64(most) * float64(n) / float64(total)
	}
	r.FinishIngest(true)
	for _, l := range locals {
		_ = l.Close() // in-memory shards hold nothing to lose
	}
	return c, rs, ferr
}

// walStats is what the journal layer benchmark reports.
type walStats struct {
	appendBatch  cost
	bytesPerLine float64 // on-disk ÷ raw
	syncMs       []float64
	replayNs     float64
}

// walLayer times wal.Log alone with the daemon's default policy: group
// appends of pump-sized batches, explicit Syncs, then a full Replay.
func (in *layerInput) walLayer() (walStats, error) {
	var ws walStats
	dir := filepath.Join(in.dir, "wal-layer")
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return ws, err
	}
	var aerr error
	var rawBytes int
	ws.appendBatch = measure(in.budget, func(i int) int {
		for j, recs := range in.pass(i).records {
			if _, err := log.AppendBatch(recs); err != nil {
				aerr = err
			}
			if j%16 == 15 {
				start := time.Now()
				if err := log.Sync(); err != nil {
					aerr = err
				}
				ws.syncMs = append(ws.syncMs, float64(time.Since(start))/float64(time.Millisecond))
			}
		}
		rawBytes += len(in.pass(i).raw) - in.lines() // newlines are not journaled
		return in.lines()
	})
	if aerr != nil {
		_ = log.Close() // the append error is the one to surface
		return ws, aerr
	}
	if err := log.Sync(); err != nil {
		_ = log.Close() // the sync error is the one to surface
		return ws, err
	}
	ws.bytesPerLine = float64(dirBytes(dir)) / float64(rawBytes)
	start := time.Now()
	replayed := 0
	err = log.Replay(1, func(uint64, []byte) error { replayed++; return nil })
	if replayed > 0 {
		ws.replayNs = float64(time.Since(start)) / float64(replayed)
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return ws, err
}

// predictorStats is what the manager benchmark reports.
type predictorStats struct {
	batch      cost
	flushUs    float64
	workerSkew float64
}

// predictorLayer times Manager.ProcessLineBatch + Flush with a consumer
// draining Results, as the shard fan-out does.
func (in *layerInput) predictorLayer() (predictorStats, error) {
	var ps predictorStats
	m, err := predictor.NewManager(in.model.chains, in.model.templates, predictor.Options{}, 0)
	if err != nil {
		return ps, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for out := range m.Results() {
			out.Ack()
		}
	}()
	var ferr error
	ps.batch = measure(in.budget, func(i int) int {
		for _, b := range in.pass(i).batches {
			if _, err := m.ProcessLineBatch(b); err != nil {
				ferr = err
			}
		}
		if err := m.Flush(); err != nil {
			ferr = err
		}
		return in.lines()
	})
	var flushes []float64
	for i := 0; i < 200 && ferr == nil; i++ {
		start := time.Now()
		ferr = m.Flush()
		flushes = append(flushes, float64(time.Since(start))/float64(time.Microsecond))
	}
	ps.flushUs = median(flushes)
	m.Close()
	<-drained

	// The manager places a node on worker fnv1a(node) % workers; the same
	// function is applied here because the manager reports no per-worker
	// counters. If that placement changes, this number goes stale.
	perWorker := make([]int, runtime.GOMAXPROCS(0))
	for _, node := range in.nodes {
		h := uint32(2166136261)
		for i := 0; i < len(node); i++ {
			h = (h ^ uint32(node[i])) * 16777619
		}
		perWorker[int(h%uint32(len(perWorker)))]++
	}
	most := 0
	for _, n := range perWorker {
		most = max(most, n)
	}
	ps.workerSkew = float64(most) * float64(len(perWorker)) / float64(len(in.nodes))
	return ps, ferr
}

// lexStats is what the scanner and parser benchmarks report.
type lexStats struct {
	parseLine, scanBenign, scanFC, feed cost
	tableBytes                          int
	stats                               predictor.Stats // one pass of the block
}

// lexAndParse times the header parse, the scanner on benign and on
// failure-chain messages separately, and the per-node parse drivers on the
// tokens the scanner let through.
func (in *layerInput) lexAndParse() (lexStats, error) {
	var ls lexStats
	p, err := predictor.New(in.model.chains, in.model.templates, predictor.Options{})
	if err != nil {
		return ls, err
	}
	sc := p.Scanner()
	ls.tableBytes = sc.TableBytes()
	var benign, fc []string
	var tokens []core.Token
	lines := in.pass(0).lines
	for _, line := range lines {
		ts, node, msg, err := lexgen.ParseLine(line)
		if err != nil {
			return ls, err
		}
		if id, ok := sc.Scan(msg); ok {
			fc = append(fc, msg)
			tokens = append(tokens, core.Token{Phrase: id, Time: ts, Node: node})
		} else {
			benign = append(benign, msg)
		}
	}
	sink := 0
	ls.parseLine = measure(in.budget, func(int) int {
		for _, line := range lines {
			_, node, _, _ := lexgen.ParseLine(line)
			sink += len(node)
		}
		return len(lines)
	})
	scan := func(msgs []string) cost {
		if len(msgs) == 0 {
			return cost{}
		}
		return measure(in.budget, func(int) int {
			for _, msg := range msgs {
				if _, ok := sc.Scan(msg); ok {
					sink++
				}
			}
			return len(msgs)
		})
	}
	ls.scanBenign, ls.scanFC = scan(benign), scan(fc)
	if len(tokens) > 0 {
		// A fresh predictor per pass keeps the tokens' log time from running
		// backwards inside one set of drivers; only the feeding is timed.
		var feeding time.Duration
		ls.feed = measure(in.budget, func(int) int {
			fresh, err := predictor.New(in.model.chains, in.model.templates, predictor.Options{})
			if err != nil {
				return len(tokens)
			}
			start := time.Now()
			for _, tok := range tokens {
				if out := fresh.ProcessToken(tok); out.Prediction != nil {
					sink++
				}
			}
			feeding += time.Since(start)
			return len(tokens)
		})
		ls.feed.ns = float64(feeding) / float64(ls.feed.units)
	}
	runtime.KeepAlive(sink)
	for _, line := range lines {
		if _, err := p.ProcessLine(line); err != nil {
			return ls, err
		}
	}
	ls.stats = p.Stats()
	return ls, nil
}

// arbiterStats is what the arbiter benchmark reports.
type arbiterStats struct {
	observe cost
	alertUs float64
	nodes   int
}

// arbiterLayer times the heartbeat observation every parsed line pays when
// -arbiter is on, and the ranked-alerts query the poller issues.
func (in *layerInput) arbiterLayer() (arbiterStats, error) {
	var as arbiterStats
	type beat struct {
		node string
		ts   time.Time
	}
	beats := make([]beat, 0, in.lines())
	for _, line := range in.pass(0).lines {
		ts, node, _, err := lexgen.ParseLine(line)
		if err != nil {
			return as, err
		}
		beats = append(beats, beat{node, ts})
	}
	var a *arbiter.Arbiter
	as.observe = measure(in.budget, func(int) int {
		a = arbiter.New(arbiter.Config{})
		for _, b := range beats {
			a.ObserveHeartbeat(b.node, b.ts)
		}
		return len(beats)
	})
	var queries []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		_ = a.Alerts()
		queries = append(queries, float64(time.Since(start))/float64(time.Microsecond))
	}
	as.alertUs = median(queries)
	as.nodes = a.Status().Nodes
	return as, nil
}

// ringLookups times the shard ring (4 members) and the two-peer placement
// table on the block's routing keys.
func (in *layerInput) ringLookups() (ringNs, peerMapNs float64) {
	r := ring.New(0, shard.MemberName(0), shard.MemberName(1), shard.MemberName(2), shard.MemberName(3))
	pm := ring.NewPeerMap(0, []ring.Peer{{Name: "a", Shards: 1, Alive: true}, {Name: "b", Shards: 1, Alive: true}})
	sink := 0
	ringNs = measure(in.budget/2, func(int) int {
		for _, key := range in.nodes {
			sink += r.LookupIndex(key)
		}
		return len(in.nodes)
	}).ns
	peerMapNs = measure(in.budget/2, func(int) int {
		for _, key := range in.nodes {
			sink += pm.Lookup(key).Shard
		}
		return len(in.nodes)
	}).ns
	runtime.KeepAlive(sink)
	return ringNs, peerMapNs
}

// forwardSend times Forwarder.Forward to a peer that reads and discards.
func (in *layerInput) forwardSend() (cost, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cost{}, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, c) // ends when the forwarder closes
		c.Close()
	}()
	f := transport.NewForwarder(quietTransport, "bench")
	var ferr error
	c := measure(in.budget, func(i int) int {
		for _, b := range in.pass(i).batches {
			if err := f.Forward(ln.Addr().String(), b); err != nil {
				ferr = err
			}
		}
		return in.lines()
	})
	f.Close()
	ln.Close()
	wg.Wait()
	if ferr != nil {
		return c, fmt.Errorf("forwarder: %w", ferr)
	}
	return c, nil
}
