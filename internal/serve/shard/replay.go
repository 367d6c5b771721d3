package shard

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/predictor"
	"repro/internal/wal"
)

// Boot replay runs in three stages, so that the scanner discards a benign
// line where it was read instead of after the whole daemon has handled it:
//
//   - The reader — wal.OpenReplay's callback, on the Open goroutine,
//     checksums verified as it reads — copies line records into a fixed pool
//     of reused chunks, cutting one at replayChunkLines lines or
//     replayChunkBytes bytes and at every model-epoch record, whose model it
//     resolves on the spot so the chunks after it scan under that model. A
//     run of n discard marks only adds n to the Discarded count of the chunk
//     being filled: no copy, no parse, no scan, no place toward the chunk's
//     line bound, and one step for the whole run.
//   - The scan stage, replayScanners goroutines, parses and scans each chunk
//     in place and copies out only the lines that tokenize — with the
//     arbiter on, every parseable line, the rest as core.NoPhrase tokens, so
//     the workers can feed the arbiter each line's heartbeat in order.
//   - The sequencer applies the chunks in journal order: the tokens
//     (Manager.ProcessScanned), then the model swap an epoch record closed
//     the chunk with.
//
// A chunk returns to the pool once the sequencer has applied it — the tokens
// it handed the workers hold interned node strings, nothing of its text — so
// a journal of any length replays in the memory of the pool.

// Replay chunk bounds — the shape live ingest hands the Manager (a pump batch
// of at most 256 lines cut from a framer chunk of at most 64 KiB), so replay
// keeps the live in-flight window.
const (
	replayChunkLines = 256
	replayChunkBytes = 64 << 10
)

// replayScanners sizes the scan stage. The reader shares the cores with it
// (read and checksum cost about what parse and scan do), and a scanner the
// scheduler has not run yet holds the sequencer at its chunk, so the stage
// has more goroutines than cores. Measured on two cores (EXPERIMENTS E12):
// with the pool start allocates, one scanner replays a benign journal 15%
// slower than one to four per core, which read alike; with half that pool,
// two per core was clearly ahead of one.
func replayScanners() int { return 2 * runtime.GOMAXPROCS(0) }

// nodeNames interns node IDs for one scan goroutine, so that a token's Node
// is a string of its own — a worker may read it after its chunk is back in
// the pool — without allocating one per line.
type nodeNames map[string]string

// maxNodeNames bounds a table against garbage node fields in a corrupt
// journal; past it, new names are copied per line.
const maxNodeNames = 1 << 16

func (nn nodeNames) of(b []byte) string {
	if s, ok := nn[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(nn) < maxNodeNames {
		nn[s] = s
	}
	return s
}

// replayChunk is one run of journaled lines on its way through replay.
type replayChunk struct {
	text   []byte // line bodies back to back
	ends   []int  // end offset in text of each line
	parser lexgen.LineParser

	// out is the scan stage's result; out.Model is the model the lines scan
	// under. kept counts its core.NoPhrase tokens.
	out  predictor.Scanned
	kept int

	// swapTo, when set, is the model a model-epoch record right after the
	// chunk's lines switched to (swapIdx is the record's index).
	swapTo  *predictor.Model
	swapIdx uint64

	done chan struct{} // the scan stage's completion signal (capacity 1)
}

// scan parses and scans the chunk's lines in place; keepAll keeps the lines
// that match no template as core.NoPhrase tokens instead of counting them.
func (c *replayChunk) scan(keepAll bool, names nodeNames) {
	sc := c.out.Model.Scanner()
	start := 0
	for _, end := range c.ends {
		ts, node, msg, err := c.parser.ParseBytes(c.text[start:end])
		start = end
		if err != nil {
			c.out.ParseErrors++
			continue
		}
		id, ok := sc.ScanBytes(msg)
		if !ok {
			if !keepAll {
				c.out.Discarded++
				continue
			}
			id = core.NoPhrase
			c.kept++
		}
		c.out.Tokens = append(c.out.Tokens, core.Token{Phrase: id, Time: ts, Node: names.of(node)})
	}
}

func (c *replayChunk) reset() {
	c.text, c.ends, c.kept = c.text[:0], c.ends[:0], 0
	clear(c.out.Tokens) // drop the node strings
	c.out = predictor.Scanned{Tokens: c.out.Tokens[:0]}
	c.swapTo = nil
}

// replay is one boot replay's pipeline. The reader side (line, swap, finish)
// runs on one goroutine; the stages start with the first record.
type replay struct {
	l     *Local
	model *predictor.Model // the model the next chunk scans under
	scan  func(c *replayChunk, names nodeNames)

	cur               *replayChunk // being filled by the reader
	free, work, order chan *replayChunk
	scanners          sync.WaitGroup
	seqDone           chan struct{} // closed when the sequencer stops
	seqErr            error         // why it stopped early; read after seqDone
	parseErrors, toks uint64        // sequencer-owned totals, read after seqDone
}

func newReplay(l *Local) *replay {
	r := &replay{l: l, model: l.Manager().Model()}
	// The arbiter, fed by the workers, needs every parseable line's heartbeat.
	keepAll := l.arb != nil
	r.scan = func(c *replayChunk, names nodeNames) { c.scan(keepAll, names) }
	return r
}

// start launches the scan stage and the sequencer over a fresh chunk pool:
// four chunks per scanner — one being scanned and three queued or scanned
// ahead of a chunk whose scanner the scheduler has not run yet, so that one
// late chunk does not stop the reader — plus the one the sequencer applies
// and the one the reader fills.
func (r *replay) start() {
	n := replayScanners()
	pool := 4*n + 2
	r.free = make(chan *replayChunk, pool)
	r.work = make(chan *replayChunk, pool)
	r.order = make(chan *replayChunk, pool)
	r.seqDone = make(chan struct{})
	for i := 0; i < pool; i++ {
		r.free <- &replayChunk{done: make(chan struct{}, 1)}
	}
	r.scanners.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer r.scanners.Done()
			names := nodeNames{}
			for c := range r.work {
				r.scan(c, names)
				c.done <- struct{}{}
			}
		}()
	}
	go r.sequence()
}

// chunk returns the chunk being filled, taking one from the pool (and
// starting the stages on first use) when there is none.
func (r *replay) chunk() (*replayChunk, error) {
	if r.cur != nil {
		return r.cur, nil
	}
	if r.free == nil {
		r.start()
	}
	select {
	case r.cur = <-r.free:
		return r.cur, nil
	case <-r.seqDone: // closed before finish only when applying failed
		return nil, r.seqErr
	}
}

// dispatch hands the chunk being filled to the scan stage and, in journal
// order, to the sequencer. Neither send blocks: both channels hold the whole
// pool.
func (r *replay) dispatch() {
	c := r.cur
	if c == nil {
		return
	}
	r.cur = nil
	c.out.Model = r.model
	r.work <- c
	r.order <- c
}

// line adds one journaled line; body aliases the journal reader's buffer and
// is copied.
func (r *replay) line(body []byte) error {
	c, err := r.chunk()
	if err != nil {
		return err
	}
	c.text = append(c.text, body...)
	c.ends = append(c.ends, len(c.text))
	if len(c.ends) >= replayChunkLines || len(c.text) >= replayChunkBytes {
		r.dispatch()
	}
	return nil
}

// marks adds n discard marks: lines the live run scanned under the model the
// chunk scans under and dropped. Counts commute, so the marks need not keep
// their place among the chunk's lines.
func (r *replay) marks(n uint64) error {
	c, err := r.chunk()
	if err != nil {
		return err
	}
	c.out.Discarded += int(n)
	return nil
}

// swap records a model-epoch record at idx: the lines before it go out as one
// chunk the sequencer follows with the swap, and the lines after it scan
// under model.
func (r *replay) swap(idx uint64, model *predictor.Model) error {
	c, err := r.chunk()
	if err != nil {
		return err
	}
	c.swapTo, c.swapIdx = model, idx
	r.dispatch()
	r.model = model
	return nil
}

// finish dispatches the last chunk, waits for every stage to drain and
// reports the first error applying a chunk hit. An empty journal started
// nothing and waits for nothing.
func (r *replay) finish() error {
	if r.free == nil {
		return nil
	}
	r.dispatch()
	close(r.work)
	close(r.order)
	<-r.seqDone
	r.scanners.Wait()
	return r.seqErr
}

// sequence applies chunks in journal order as their scans complete. It stops
// at the first error, which the reader then sees the next time it needs a
// chunk.
func (r *replay) sequence() {
	defer close(r.seqDone)
	for c := range r.order {
		<-c.done
		if err := r.apply(c); err != nil {
			r.seqErr = err
			return
		}
		c.reset()
		r.free <- c
	}
}

// apply hands one scanned chunk to the shard, in the order the live path
// would have: its lines, then the model swap that followed them.
func (r *replay) apply(c *replayChunk) error {
	perrs, err := r.l.Manager().ProcessScanned(&c.out)
	r.parseErrors += uint64(perrs)
	r.toks += uint64(len(c.out.Tokens) - c.kept)
	if err == nil && c.swapTo != nil {
		if err = r.l.replaySwap(c.swapTo); err != nil {
			err = fmt.Errorf("re-executing model swap at %d: %w", c.swapIdx, err)
		}
	}
	return err
}

// replayJournal opens the shard's journal and, in the same read of it,
// replays it from index from through the pipeline above (wal.OpenReplay),
// adding what it did to rec. A run of identical marks is counted in one step;
// every other record is handled one at a time. On error no journal is
// returned.
func (l *Local) replayJournal(from uint64, rec *RecoveryStatus) (*wal.Log, error) {
	r := newReplay(l)
	opts := wal.Options{Sync: l.cfg.Fsync, SegmentSize: l.cfg.WALSegmentSize}
	wl, err := wal.OpenReplay(l.walDir(), opts, from, func(idx uint64, payload []byte, n uint64) error {
		rec.ReplayedRecords += n
		rec.ReplayBytes += n * uint64(len(payload))
		kind, body := decodeRecordBytes(payload)
		if kind == recKindMark {
			rec.ReplayedMarks += n
			return r.marks(n)
		}
		for end := idx + n; idx < end; idx++ {
			if err := l.replayRecord(r, idx, kind, body, rec); err != nil {
				return err
			}
		}
		return nil
	})
	if ferr := r.finish(); err == nil {
		err = ferr
	}
	// Malformed lines counted as parse errors when first accepted and do
	// again now.
	rec.ReplayErrors += r.parseErrors
	rec.ReplayTokens = r.toks
	if err != nil {
		if wl != nil {
			_ = wl.Close() // unwinding: the replay error is the one to surface
		}
		return nil, err
	}
	return wl, nil
}

// replayRecord hands one journaled record other than a mark to the replay.
func (l *Local) replayRecord(r *replay, idx uint64, kind int, body []byte, rec *RecoveryStatus) error {
	switch kind {
	case recKindLine:
		return r.line(body)
	case recKindEpoch:
		// A model hot-swap happened here: re-execute it so the rest of the
		// journal replays against the model it was written under.
		if fp := string(body); fp != r.model.FingerprintHex() {
			model, err := l.modelFor(fp)
			if err != nil {
				return fmt.Errorf("re-executing model swap at %d: %w", idx, err)
			}
			if err := r.swap(idx, model); err != nil {
				return err
			}
		}
		rec.ReplayedSwaps++
	default:
		rec.ReplayErrors++
	}
	return nil
}

// replaySwap re-executes a journaled model swap during boot replay: the
// current manager's state migrates into the epoch's model exactly as the
// original swap migrated it (same AdoptState tiers).
func (l *Local) replaySwap(model *predictor.Model) error {
	old := l.Manager()
	next := model.NewManager(old.Workers())
	// The fan-out is consuming (recovery mode), so the barrier completes.
	if err := old.Flush(); err != nil {
		next.Close()
		return err
	}
	st, err := old.ExportState()
	if err != nil {
		next.Close()
		return err
	}
	if _, err := next.AdoptState(st); err != nil {
		next.Close()
		return fmt.Errorf("migrating state into %s: %w", model.FingerprintHex(), err)
	}
	l.attachArbiter(next)
	l.setManager(next)
	old.Close()
	return nil
}
