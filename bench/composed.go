package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/serve/pipeline"
	"repro/internal/serve/shard"
	"repro/internal/serve/transport"
)

// groupLines is how many lines one transport.read span covers. The
// connection handler's socket reads cannot be seen from outside the
// transport, so its time is cut at every groupLines-th Ingest call instead;
// that one call is timed in full (a pipeline.ingest span), which keeps the
// tracer off the other calls.
const groupLines = 256

// spanRec is one recorded span. Times are nanoseconds since the run began.
type spanRec struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 is the run itself
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Seq    int32  `json:"seq"`   // group number (transport) or batch id (pump)
	Lines  int32  `json:"lines"` // lines the span covers
}

// tracer keeps spans in memory. The connection handler and the pump each
// append to a slice of their own, so recording takes no lock.
type tracer struct {
	t0     time.Time
	nextID atomic.Int32
	conn   []spanRec
	pump   []spanRec
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) id() int32 { return tr.nextID.Add(1) }

// timingIngestor sits between the TCP transport and the pipeline. It runs on
// the one connection handler goroutine of the run.
type timingIngestor struct {
	*pipeline.Pipeline
	tr         *tracer
	n          int64
	groupStart int64
	groupID    int32
}

func (t *timingIngestor) Ingest(line string) bool {
	if t.n%groupLines != 0 {
		t.n++
		return t.Pipeline.Ingest(line)
	}
	now := t.tr.now()
	if t.n > 0 {
		t.closeGroup(now)
	}
	t.groupStart, t.groupID = now, t.tr.id()
	ok := t.Pipeline.Ingest(line)
	t.tr.conn = append(t.tr.conn, spanRec{ID: t.tr.id(), Parent: t.groupID, Name: "pipeline.ingest",
		Start: now, End: t.tr.now(), Seq: int32(t.n / groupLines), Lines: 1})
	t.n++
	return ok
}

func (t *timingIngestor) closeGroup(now int64) {
	lines := t.n % groupLines
	if lines == 0 {
		lines = groupLines
	}
	t.tr.conn = append(t.tr.conn, spanRec{ID: t.groupID, Name: "transport.read",
		Start: t.groupStart, End: now, Seq: int32((t.n - 1) / groupLines), Lines: int32(lines)})
}

// timingSink sits between the pump and the shard router. A pipeline.batch
// span runs from the previous batch's return to this one's: queue wait, batch
// cut and the sink call, which is its shard.process_batch child.
type timingSink struct {
	inner   pipeline.Sink
	tr      *tracer
	lastEnd int64
	batch   atomic.Int32 // batches recorded so far
}

func (s *timingSink) ProcessLine(line string) { s.ProcessBatch([]string{line}) }

func (s *timingSink) ProcessBatch(batch []string) {
	start := s.tr.now()
	s.inner.ProcessBatch(batch)
	end := s.tr.now()
	parent, seq := s.tr.id(), s.batch.Load()+1
	s.tr.pump = append(s.tr.pump,
		spanRec{ID: parent, Name: "pipeline.batch", Start: s.lastEnd, End: end, Seq: seq, Lines: int32(len(batch))},
		spanRec{ID: s.tr.id(), Parent: parent, Name: "shard.process_batch", Start: start, End: end, Seq: seq, Lines: int32(len(batch))})
	s.lastEnd = end
	s.batch.Store(seq)
}

// composedResult is what one in-process composition run measured.
type composedResult struct {
	blastLines   int
	blastSeconds float64
	blastEndNs   int64 // tracer time at which the unpaced section had settled
	spans        []spanRec
	depth        []float64 // 1 kHz Depth() samples over the paced section
	batchLines   []float64 // pump batch sizes over the paced section
	dropped      int64
}

// runComposed wires transport.NewTCP → pipeline.New → shard.NewRouter in this
// process, as serve.Start does, and drives it over loopback: `blast` lines
// unpaced, then `paced` lines at the workload's rate. With tracing on, a
// timing Ingestor and a timing Sink record spans at the two layer boundaries.
func runComposed(in *layerInput, s *stream, w *workload, blast, paced int, traced bool) (*composedResult, error) {
	res := &composedResult{blastLines: blast}
	dataDir := filepath.Join(in.dir, "composed")
	defer os.RemoveAll(dataDir)
	locals := make([]*shard.Local, w.peers[0].shards)
	for i := range locals {
		dir := ""
		if w.peers[0].durable {
			dir = filepath.Join(dataDir, fmt.Sprintf("shard-%d", i))
		}
		l, err := in.newLocal(i, dir)
		if err != nil {
			return nil, err
		}
		locals[i] = l
	}
	router := shard.NewRouter(locals)
	defer func() {
		router.FinishIngest(true)
		for _, l := range locals {
			_ = l.Close() // scratch journals
		}
	}()

	tr := &tracer{t0: time.Now()}
	var sink pipeline.Sink = router
	var tsink *timingSink
	if traced {
		tsink = &timingSink{inner: router, tr: tr}
		sink = tsink
	}
	pipe := pipeline.New(pipeline.Config{QueueSize: 4096, Overflow: pipeline.Block,
		BatchMax: batchLines, BatchMaxBytes: 256 << 10}, sink)
	var ing transport.Ingestor = pipe
	var ting *timingIngestor
	if traced {
		ting = &timingIngestor{Pipeline: pipe, tr: tr}
		ing = ting
	}
	tcp := transport.NewTCP(quietTransport, ing, 5*time.Minute)
	if err := tcp.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	pipe.Start()
	snd, err := dialSender(tcp.Addr().String(), s)
	if err != nil {
		return nil, err
	}
	settle := func(sent int) error {
		for pipe.Accepted() < int64(sent) || pipe.Depth() > 0 {
			time.Sleep(200 * time.Microsecond)
		}
		return router.Flush()
	}

	start := time.Now()
	if _, err := snd.blast(0, blast); err != nil {
		return nil, err
	}
	if err := settle(blast); err != nil {
		return nil, err
	}
	res.blastSeconds = time.Since(start).Seconds()
	res.blastEndNs = tr.now()

	firstPaced := 0
	if paced > 0 {
		if traced {
			firstPaced = 2 * int(tsink.batch.Load()) // two spans per batch
		}
		stop, sampled := make(chan struct{}), make(chan []float64)
		go func() {
			var depth []float64
			for {
				select {
				case <-stop:
					sampled <- depth
					return
				default:
				}
				depth = append(depth, float64(pipe.Depth()))
				time.Sleep(time.Millisecond)
			}
		}()
		_, _, err := snd.paced(blast, blast+paced, w.pacedRate)
		if err == nil {
			err = settle(blast + paced)
		}
		close(stop)
		res.depth = <-sampled
		if err != nil {
			return nil, err
		}
	}

	// Tear down in the daemon's order: no new connections, producers gone,
	// queue closed, pump drained.
	snd.conn.Close()
	pipe.StartDrain()
	tcp.StopAccepting()
	<-pipe.ProducersIdle()
	pipe.CloseQueue()
	<-pipe.Done()
	res.dropped = pipe.Dropped()
	if traced {
		ting.closeGroup(tr.now())
		res.spans = append(tr.conn, tr.pump...)
		for _, sp := range tr.pump[firstPaced:] {
			if sp.Name == "pipeline.batch" && paced > 0 {
				res.batchLines = append(res.batchLines, float64(sp.Lines))
			}
		}
	}
	return res, nil
}

// layerSelf is the time spans of one name spent outside their children.
type layerSelf struct {
	Name      string  `json:"name"`
	Spans     int     `json:"spans"`
	SelfNs    int64   `json:"self_ns"`
	NsPerLine float64 `json:"self_ns_per_line"`
}

// traceSummary is the part of a trace file a reader wants first.
type traceSummary struct {
	Lines int `json:"lines"`
	// ConnWallNs and PumpWallNs are the wall time the connection handler and
	// the pump were observed for; each goroutine's spans tile its wall time,
	// so the self times of the two groups add up to it.
	ConnWallNs int64       `json:"conn_wall_ns"`
	PumpWallNs int64       `json:"pump_wall_ns"`
	Layers     []layerSelf `json:"layers"`
	// IngestBlockedShare is the connection handler's time inside Ingest
	// (the sampled calls scaled by groupLines) as a share of its wall time.
	IngestBlockedShare float64 `json:"ingest_blocked_share"`
	SinkBusyShare      float64 `json:"sink_busy_share"`
}

// summarize computes per-layer self time over the spans that ended by
// `until` (the unpaced section: later spans include the idle time of the
// paced second): a span's duration minus the part its children cover. The
// one sampled pipeline.ingest child of a transport.read span stands for all
// groupLines calls in it.
func summarize(all []spanRec, until int64, lines int) traceSummary {
	sum := traceSummary{Lines: lines}
	var spans []spanRec
	for _, sp := range all {
		if sp.End <= until {
			spans = append(spans, sp)
		}
	}
	childNs := map[int32]int64{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			d := sp.End - sp.Start
			if sp.Name == "pipeline.ingest" {
				d *= groupLines
			}
			childNs[sp.Parent] += d
		}
	}
	byName := map[string]*layerSelf{}
	var order []string
	for _, sp := range spans {
		dur := sp.End - sp.Start
		switch sp.Name {
		case "transport.read":
			sum.ConnWallNs += dur
		case "pipeline.batch":
			sum.PumpWallNs += dur
		case "pipeline.ingest":
			dur *= groupLines
		}
		// A group whose sampled call was slower than its mean call gets a
		// negative self time; only the sum over all groups means anything.
		self := dur - childNs[sp.ID]
		ls := byName[sp.Name]
		if ls == nil {
			ls = &layerSelf{Name: sp.Name}
			byName[sp.Name] = ls
			order = append(order, sp.Name)
		}
		ls.Spans++
		ls.SelfNs += self
	}
	for _, name := range order {
		ls := byName[name]
		ls.SelfNs = max(ls.SelfNs, 0)
		ls.NsPerLine = float64(ls.SelfNs) / float64(lines)
		sum.Layers = append(sum.Layers, *ls)
	}
	if in := byName["pipeline.ingest"]; in != nil && sum.ConnWallNs > 0 {
		sum.IngestBlockedShare = min(1, float64(in.SelfNs)/float64(sum.ConnWallNs))
	}
	if sh := byName["shard.process_batch"]; sh != nil && sum.PumpWallNs > 0 {
		sum.SinkBusyShare = float64(sh.SelfNs) / float64(sum.PumpWallNs)
	}
	return sum
}

// writeTrace stores the spans and their summary as trace-<workload>.json.
func writeTrace(path string, w *workload, seed int64, sum traceSummary, spans []spanRec) error {
	doc := struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Summary  traceSummary `json:"summary"`
		Spans    []spanRec    `json:"spans"`
	}{w.name, seed, sum, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
