// Package serve exposes the Aarohi predictor as a long-running network
// service — the deployment shape of the paper's Fig. 2/Fig. 16, where the
// predictor sits on the SMW consuming the live aggregate HSS log stream
// rather than replaying files.
//
// The daemon is layered, with strictly one-way dependencies (enforced by the
// aarohilint layering analyzer):
//
//	transport   TCP line listener + HTTP ingest/admin; knows only Ingestor
//	pipeline    bounded queue + count/bytes/age batcher + pump goroutine
//	shard       Manager + WAL + snapshots + arbiter + shadow, per partition
//	lifecycle   boot recovery, snapshot loop, hot-swap across all shards
//	ring        consistent-hash placement (imports nothing above core)
//
// This package is the composition root: it wires transports over the
// pipeline through the edge (edge.go: it drops the lines no failure chain
// needs unless something else reads them), the pipeline over the shard Router
// (which consistent-hashes each line's node ID onto one of Config.Shards
// partitions and submits each partition's share on the pump goroutine), and
// the lifecycle Group over the shard set. With Shards == 1 the router hands each batch through whole and
// the daemon's on-disk layout is byte-identical to the pre-sharding monolith.
package serve

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/arbiter"
	"repro/internal/predictor"
	"repro/internal/serve/lifecycle"
	"repro/internal/serve/pipeline"
	"repro/internal/serve/shard"
	"repro/internal/serve/transport"
	"repro/internal/wal"
)

// OverflowPolicy says what happens when the ingest queue is full.
type OverflowPolicy = pipeline.Policy

const (
	// Block makes producers wait for queue space — backpressure propagates
	// to TCP senders through the kernel socket buffers. No accepted line is
	// ever dropped.
	Block = pipeline.Block
	// Shed drops the line immediately and counts it in lines_dropped —
	// bounded latency at the cost of loss under overload.
	Shed = pipeline.Shed
)

// Re-exported layer types: the serve API predates the layering split, so the
// names stay importable from here.
type (
	// IngestResult is the POST /ingest response body.
	IngestResult = transport.IngestResult
	// WALStatus is the /statusz journal block.
	WALStatus = shard.WALStatus
	// RecoveryStatus is the /statusz recovery block.
	RecoveryStatus = shard.RecoveryStatus
	// SwapReport describes one model hot-swap (aggregated across shards).
	SwapReport = shard.SwapReport
	// ModelStatus is the /statusz model block.
	ModelStatus = lifecycle.ModelStatus
	// ShadowStatus is the /statusz shadow block.
	ShadowStatus = lifecycle.ShadowStatus
	// AdoptedStatus is one takeover's row in the /statusz cluster block.
	AdoptedStatus = lifecycle.AdoptedStatus
)

// Config parameterizes a Server. The zero value serves HTTP and TCP on
// ephemeral loopback ports with a 4096-line blocking queue and one shard.
type Config struct {
	// TCPAddr is the line-protocol listen address ("127.0.0.1:0" default;
	// "off" disables the TCP listener).
	TCPAddr string
	// HTTPAddr is the HTTP listen address ("127.0.0.1:0" default; "off"
	// disables the HTTP server).
	HTTPAddr string
	// QueueSize bounds the ingest queue (default 4096).
	QueueSize int
	// Overflow is the queue-full policy (default Block).
	Overflow OverflowPolicy
	// ReadTimeout is the per-connection idle read deadline; a TCP client
	// silent for longer is disconnected (default 5m).
	ReadTimeout time.Duration
	// MaxLineLen caps a single log line in bytes; longer lines terminate
	// the connection resp. reject the batch (default 1 MiB).
	MaxLineLen int
	// BatchMax caps how many queued lines the pump coalesces into one WAL
	// group-append and one Manager batch submit (default 256). 1 makes every
	// batch a single line on the same path. The pump never waits for a
	// batch to fill: it cuts one when the queue runs empty, so batches grow
	// with load — full amortization under pressure, one-line latency when
	// idle — and a snapshot or Flush issued while the stream is quiet
	// observes every line. A batch is also cut at 256 KiB, bounding WAL
	// write size and worker latency under huge lines.
	BatchMax int
	// Logf, when non-nil, receives operational messages (accept errors,
	// connection failures). Nil discards them.
	Logf func(format string, args ...any)

	// Shards is the number of local prediction shards (default 1). Each
	// shard owns a private Manager, journal and arbiter; lines route to
	// shards by consistent-hashing the node ID, so one node's lines always
	// land on the same shard in order. Every shard runs the compiled model
	// of the Manager passed to New; boot aligns shards whose journals ended
	// under different versions through the model registry.
	Shards int

	// DataDir enables durability: a write-ahead journal of every accepted
	// line plus periodic parse-state snapshots live under it, and Start
	// recovers from them before opening listeners; admitted model versions
	// live under DataDir/models. With no Arbiter or Cluster, a line the
	// active model drops is journaled as a 2-byte discard mark instead of in
	// full (edge.go). Empty disables persistence entirely (the model registry
	// is then kept in memory). With Shards > 1 each shard keeps its own
	// journal and snapshots under DataDir/shard-<i>; with Shards == 1 the
	// layout is byte-identical to the pre-sharding daemon.
	DataDir string
	// SnapshotInterval is the period between automatic snapshots. 0 writes
	// a snapshot only during graceful shutdown — crash recovery then
	// replays the whole journal, re-firing every prediction since the last
	// clean stop.
	SnapshotInterval time.Duration
	// Fsync is the journal sync policy (default wal.SyncBatch).
	Fsync wal.SyncPolicy
	// WALSegmentSize overrides the journal segment size (default 64 MiB;
	// mainly for tests).
	WALSegmentSize int64

	// Arbiter, when non-nil, enables failure arbitration: a phi-accrual
	// heartbeat detector fed by every parsed line, fused with chain-accept
	// evidence into calibrated ranked alerts (GET /predictions?mode=alerts,
	// /statusz "arbiter" block). Arbiter state rides the snapshot/WAL
	// recovery path alongside the parse state when DataDir is set. Each
	// shard runs its own arbiter over the nodes it owns.
	Arbiter *arbiter.Config

	// Cluster, when non-nil, joins this daemon to an aarohid cluster: gossip
	// membership, cross-daemon line forwarding, WAL shipping to the ring
	// successor and shard takeover on confirmed peer death (see cluster.go).
	Cluster *ClusterConfig
}

func (c Config) withDefaults() Config {
	if c.TCPAddr == "" {
		c.TCPAddr = "127.0.0.1:0"
	}
	if c.HTTPAddr == "" {
		c.HTTPAddr = "127.0.0.1:0"
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.Overflow == "" {
		c.Overflow = Block
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.MaxLineLen <= 0 {
		c.MaxLineLen = 1 << 20
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 256
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Validate rejects configurations the daemon cannot serve. Called by Start
// (after defaulting); exported so cmd/aarohid can fail fast at flag-parse
// time with the same messages.
func (c Config) Validate() error {
	if c.Overflow != "" && c.Overflow != Block && c.Overflow != Shed {
		return fmt.Errorf("serve: Overflow must be %q or %q, got %q", Block, Shed, c.Overflow)
	}
	if c.SnapshotInterval > 0 && c.DataDir == "" {
		return fmt.Errorf("serve: SnapshotInterval requires DataDir (snapshots need somewhere to live)")
	}
	if c.Cluster != nil {
		if c.Cluster.Name == "" {
			return fmt.Errorf("serve: Cluster requires Name (the daemon's cluster-unique peer name)")
		}
		if c.TCPAddr == "off" {
			return fmt.Errorf("serve: Cluster requires the TCP line listener (forwarding and shipping ride it)")
		}
		gossipMode := c.Cluster.GossipAddr != ""
		if gossipMode == (len(c.Cluster.Static) > 0) {
			return fmt.Errorf("serve: Cluster requires exactly one of GossipAddr (live membership) or Static (fixed table)")
		}
	}
	return nil
}

// Status is the /statusz document: server counters, one row per shard, and
// the daemon-wide manager, journal, recovery and arbiter blocks, each the
// fold of the rows' blocks (at one shard, the row's own). lines accepted +
// lines dropped always equals the lines producers attempted to enqueue.
type Status struct {
	UptimeSeconds   float64         `json:"uptime_seconds"`
	Draining        bool            `json:"draining"`
	Overflow        string          `json:"overflow"`
	LinesAccepted   int64           `json:"lines_accepted"`
	LinesDropped    int64           `json:"lines_dropped"`
	ParseErrors     int64           `json:"parse_errors"`
	OpenConns       int64           `json:"open_connections"`
	TotalConns      int64           `json:"total_connections"`
	QueueDepth      int             `json:"queue_depth"`
	QueueCapacity   int             `json:"queue_capacity"`
	Subscribers     int             `json:"subscribers"`
	SubscriberDrops int64           `json:"subscriber_drops"`
	Manager         predictor.Stats `json:"manager"`
	// Shards is the per-shard block: one row per partition, in index order.
	Shards []shard.Stats `json:"shards"`
	// WAL and Recovery describe the durability layer; nil when DataDir is
	// unset.
	WAL      *WALStatus      `json:"wal,omitempty"`
	Recovery *RecoveryStatus `json:"recovery,omitempty"`
	// Model and Shadow describe the model lifecycle; Shadow is nil when no
	// shadow evaluation runs.
	Model  *ModelStatus  `json:"model,omitempty"`
	Shadow *ShadowStatus `json:"shadow,omitempty"`
	// Arbiter is the live arbitration block (per-node phi, fused scores,
	// chain precision ledger); nil when Config.Arbiter is unset.
	Arbiter *arbiter.Status `json:"arbiter,omitempty"`
	// Cluster is the peer membership / forwarding / shipping block; nil when
	// Config.Cluster is unset.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

// Server is the streaming ingestion daemon core. Construct with New, bind
// and start with Start, stop with Shutdown (or drive both with Run).
type Server struct {
	cfg   Config
	hub   *hub
	start time.Time

	// shards are the daemon's boot partitions in index order; shards[0]
	// wraps the Manager passed to New. router consistent-hashes lines onto
	// them; group owns them, and the shards adopted from dead peers, from
	// boot to close. Both are wired by Start.
	shards []*shard.Local
	router *shard.Router
	group  *lifecycle.Group
	pipe   *pipeline.Pipeline
	edge   *edge // the chunk function both transports call (edge.go)
	tcp    *transport.TCP
	http   *transport.HTTP

	// bootModel is the compiled model of the Manager passed to New; extra
	// shards and adopted cluster shards start on it.
	bootModel *predictor.Model

	// cluster is the peer plane (nil when Config.Cluster is unset).
	cluster *cluster

	started      bool
	shutdownOnce sync.Once
	shutdownErr  error

	// testHookPumpDelay, when non-nil, runs before each line is handed to
	// the Manager — tests use it to hold the queue full and exercise the
	// overflow policies deterministically. Set before Start.
	testHookPumpDelay func()
	// testSkipFinalSnapshot suppresses the shutdown snapshot, emulating a
	// crash for recovery tests.
	testSkipFinalSnapshot bool
}

// New builds a Server over an already-constructed Manager, which becomes
// shard 0. The Server owns the Manager's lifecycle from Start onward:
// Shutdown closes it and drains Results.
func New(m *predictor.Manager, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		hub:       newHub(),
		bootModel: m.Model(),
	}
	s.shards = []*shard.Local{shard.New(m, s.shardConfig(0))}
	return s
}

// shardConfig is shard i's slice of the server configuration. Single-shard
// daemons keep the flat DataDir layout (byte-identical to the pre-sharding
// daemon); multi-shard daemons nest each shard under DataDir/shard-<i>.
func (s *Server) shardConfig(i int) shard.Config {
	dir := s.cfg.DataDir
	if dir != "" && s.cfg.Shards > 1 {
		dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
	}
	return shard.Config{
		Index:          i,
		Dir:            dir,
		Fsync:          s.cfg.Fsync,
		WALSegmentSize: s.cfg.WALSegmentSize,
		Arbiter:        s.cfg.Arbiter,
		Logf:           s.cfg.Logf,
		Publish:        s.hub.publish,
	}
}

// Start recovers persisted state (when DataDir is set), then binds the
// configured listeners and starts the ingest pump and the prediction
// fan-out. It returns once the server is accepting traffic — recovery
// happens strictly before any listener opens, so a client that can connect
// always sees the fully recovered parse state.
func (s *Server) Start() error {
	if s.started {
		return fmt.Errorf("serve: Start called twice")
	}
	s.started = true
	s.start = time.Now()

	if err := s.cfg.Validate(); err != nil {
		s.shards[0].Manager().Close()
		return err
	}
	// Extra shards run the boot manager's compiled model with its worker
	// count: boot compiles it once, whatever the shard and worker counts.
	workers := s.shards[0].Manager().Workers()
	for i := 1; i < s.cfg.Shards; i++ {
		s.shards = append(s.shards, shard.New(s.bootModel.NewManager(workers), s.shardConfig(i)))
	}
	s.group = lifecycle.NewGroup(s.shards, lifecycle.Config{
		SnapshotInterval: s.cfg.SnapshotInterval,
		Logf:             s.cfg.Logf,
	})

	// The model registry opens next: it admits (and vets) the boot model and
	// loads the activation manifest that recovery reconciles against the
	// journal.
	if err := s.group.OpenRegistry(s.cfg.DataDir); err != nil {
		for _, sh := range s.shards {
			sh.Manager().Close()
		}
		return err
	}

	// Fan-outs must run before recovery: replayed outputs travel through
	// them into the recovered buffers, and snapshot barriers need their acks.
	for _, sh := range s.shards {
		sh.Start()
	}
	if err := s.group.Boot(); err != nil {
		// Best effort: the boot error is the one to surface.
		s.group.FinishIngest(true)
		s.group.Close()
		return err
	}
	if s.cfg.DataDir != "" {
		s.group.StartSnapshots()
	}

	s.router = shard.NewRouter(s.shards)
	pcfg := pipeline.Config{
		QueueSize: s.cfg.QueueSize,
		Overflow:  s.cfg.Overflow,
		BatchMax:  s.cfg.BatchMax,
		// OnDrained runs on the pump goroutine after the queue empties: every
		// shard's final checkpoint and manager close, while the fan-outs the
		// snapshot barriers need are still alive.
		OnDrained: func() { s.group.FinishIngest(s.testSkipFinalSnapshot) },
	}
	var sink pipeline.Sink = s.router
	if s.cfg.Cluster != nil {
		// Cluster mode interposes placement between the pump and the Router:
		// the primary sink may forward lines to peers, and the Forward sink
		// handles lines that already hopped.
		s.cluster = newCluster(s, *s.cfg.Cluster)
		sink = newClusterSink(s.cluster, false)
		pcfg.Forward = newClusterSink(s.cluster, true)
	}
	s.pipe = pipeline.New(pcfg, sink)
	s.pipe.TestHookDelay = s.testHookPumpDelay
	// Lines the model drops are counted where they land unless something
	// reads them: an arbiter takes every line as a heartbeat, and peers may
	// arbitrate or run another model. A journal records each as a discard
	// mark, which replay attributes to a model through the registry.
	// Shadows and swaps are checked per chunk, at the shard.
	s.edge = newEdge(s.pipe, s.router, s.shards, s.cfg.Arbiter == nil && s.cfg.Cluster == nil)

	// On listener failure, unwind what Start already spun up so no
	// goroutine or journal handle leaks.
	fail := func(err error) error {
		if s.tcp != nil {
			s.tcp.StopAccepting()
		}
		if s.cluster != nil {
			s.cluster.close()
		}
		s.group.StopSnapshots()
		// Unwinding: the listener error is the one to surface.
		s.group.FinishIngest(true)
		s.group.Close()
		s.hub.close()
		return err
	}
	tcfg := transport.Config{MaxLineLen: s.cfg.MaxLineLen, Logf: s.cfg.Logf}
	if s.cfg.TCPAddr != "off" {
		s.tcp = transport.NewTCP(tcfg, s.pipe, s.cfg.ReadTimeout)
		s.tcp.SetBatchIngest(s.edge.ingest)
		if s.cluster != nil {
			s.tcp.SetHijacker(s.cluster.hijack)
		}
		if err := s.tcp.Start(s.cfg.TCPAddr); err != nil {
			return fail(err)
		}
	}
	// The cluster plane starts once the line listener is bound (its address
	// is what gossip advertises) and before the pump runs (the sinks read
	// the placement view).
	if s.cluster != nil {
		if err := s.cluster.start(); err != nil {
			return fail(err)
		}
	}
	if s.cfg.HTTPAddr != "off" {
		s.http = transport.NewHTTP(tcfg, s.pipe)
		s.http.SetBatchIngest(s.edge.ingest)
		s.http.Handle("GET /predictions", s.handlePredictions)
		s.http.Handle("GET /statusz", s.handleStatusz)
		if s.cluster != nil {
			s.http.Handle("GET /peers", s.handlePeers)
		}
		s.http.Handle("POST /model", s.handleModelUpload)
		s.http.Handle("GET /models", s.handleModels)
		s.http.Handle("POST /model/activate", s.handleModelActivate)
		s.http.Handle("POST /model/rollback", s.handleModelRollback)
		s.http.Handle("POST /model/shadow", s.handleShadowStart)
		s.http.Handle("DELETE /model/shadow", s.handleShadowStop)
		if err := s.http.Start(s.cfg.HTTPAddr); err != nil {
			return fail(err)
		}
	}

	s.pipe.Start()
	return nil
}

// TCPAddr reports the bound line-protocol address (nil when disabled).
func (s *Server) TCPAddr() net.Addr {
	if s.tcp == nil {
		return nil
	}
	return s.tcp.Addr()
}

// HTTPAddr reports the bound HTTP address (nil when disabled).
func (s *Server) HTTPAddr() net.Addr {
	if s.http == nil {
		return nil
	}
	return s.http.Addr()
}

// Subscribe attaches an in-process prediction consumer with room for buffer
// outputs (defaultSubBuffer when buffer <= 0); a consumer lagging behind it
// loses outputs, counted in subscriber_drops. The subscription's Out channel
// closes when the server drains or Cancel is called.
func (s *Server) Subscribe(buffer int) *Subscription {
	return s.hub.subscribe(buffer)
}

// Recovered returns the outputs re-derived during boot-time replay and peer
// takeovers — in arrival order, concatenated across the boot shards in index
// order, then the adopted shards in (peer, index) order. HTTP subscribers can
// fetch them with GET /predictions?replay=recovered; embedded callers use
// this accessor.
func (s *Server) Recovered() []predictor.Output {
	var out []predictor.Output
	for _, sh := range s.group.Shards() {
		out = append(out, sh.Recovered()...)
	}
	return out
}

// Status snapshots the server counters and one row per boot shard, and folds
// the rows into the daemon-wide blocks.
func (s *Server) Status() Status {
	st := Status{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Draining:        s.pipe.Draining(),
		Overflow:        string(s.cfg.Overflow),
		LinesAccepted:   s.pipe.Accepted(),
		LinesDropped:    s.pipe.Dropped(),
		QueueDepth:      s.pipe.Depth(),
		QueueCapacity:   s.pipe.Capacity(),
		Subscribers:     s.hub.count(),
		SubscriberDrops: s.hub.dropped.Load(),
		Model:           s.group.ModelStatus(),
		Shadow:          s.group.ShadowStatus(),
		Shards:          make([]shard.Stats, len(s.shards)),
	}
	if s.tcp != nil {
		st.OpenConns = s.tcp.Open()
		st.TotalConns = s.tcp.Total()
	}
	var arbs []*arbiter.Arbiter
	for i, sh := range s.shards {
		row := sh.Stats()
		st.Shards[i] = row
		st.ParseErrors += row.ParseErrors
		st.Manager.Add(row.Manager)
		st.WAL = st.WAL.Add(row.WAL)
		st.Recovery = st.Recovery.Add(row.Recovery)
		if arb := sh.Arbiter(); arb != nil {
			arbs = append(arbs, arb)
		}
	}
	if arbs != nil {
		as := arbiter.StatusOf(arbs...)
		st.Arbiter = &as
	}
	if s.cluster != nil {
		st.Cluster = s.cluster.status()
	}
	return st
}

// Alerts returns the current ranked alerts, merged across shards: score
// descending, node ID as the tiebreaker — the same deterministic order a
// single arbiter produces (nil when arbitration is disabled). Shards
// partition the node space, so the merge is a disjoint union.
func (s *Server) Alerts() []arbiter.Alert {
	var alerts []arbiter.Alert
	for _, sh := range s.shards {
		if arb := sh.Arbiter(); arb != nil {
			alerts = arb.AlertsInto(alerts)
		}
	}
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].Score != alerts[j].Score {
			return alerts[i].Score > alerts[j].Score
		}
		return alerts[i].Node < alerts[j].Node
	})
	return alerts
}

// drainGrace is how long Shutdown lets open TCP connections finish sending
// before force-closing them.
const drainGrace = time.Second

// Shutdown drains the server gracefully: stop accepting connections and
// batches, give open TCP connections drainGrace to finish sending, flush
// every accepted line through the Manager, close the prediction fan-out
// (subscribers' Out channels close), and stop the HTTP server. In Block
// mode no accepted line is lost. Shutdown is idempotent; the first call's
// result is returned to all callers. The context bounds the final HTTP
// teardown — ingest flushing itself always runs to completion.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdown(ctx) })
	return s.shutdownErr
}

func (s *Server) shutdown(ctx context.Context) error {
	// 1. Refuse new producers; nothing else registers from here on. In
	// cluster mode, announce departure first so peers stop forwarding here
	// (left is terminal — no takeover fires for a graceful leave).
	if s.cluster != nil {
		s.cluster.leave()
	}
	s.pipe.StartDrain()

	// 2. Stop accepting TCP connections.
	if s.tcp != nil {
		s.tcp.StopAccepting()
	}

	// 3. Give open connections a grace window to flush what their clients
	// already sent, then force-close stragglers.
	if s.tcp != nil {
		s.tcp.SetDrainDeadline(time.Now().Add(drainGrace))
	}
	prodIdle := s.pipe.ProducersIdle()
	select {
	case <-prodIdle:
	case <-time.After(drainGrace + time.Second):
		if s.tcp != nil {
			s.tcp.ForceClose()
		}
		<-prodIdle
	}

	// 4. No producers remain: stop the periodic snapshotter, close the
	// queue, let the pump flush every accepted line into the shards (each
	// writes its final snapshot and closes its Manager), stop the cluster
	// plane (no takeover or journal read after this), then close every shard
	// — running shadows are discarded, fan-outs drain, journals close last —
	// and release subscribers.
	s.group.StopSnapshots()
	s.pipe.CloseQueue()
	<-s.pipe.Done()
	if s.cluster != nil {
		s.cluster.close()
	}
	s.group.Close()
	s.hub.close()

	// 5. Tear down HTTP last so /statusz and /predictions stay observable
	// through the drain.
	if s.http != nil {
		return s.http.Stop(ctx)
	}
	return nil
}

// Run starts the server and blocks until ctx is cancelled, then drains with
// the given grace period (0 → 30s) and returns Shutdown's error.
func (s *Server) Run(ctx context.Context, grace time.Duration) error {
	if err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	if grace <= 0 {
		grace = 30 * time.Second
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return s.Shutdown(sctx)
}
