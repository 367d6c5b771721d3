package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/wal"
)

// The serve package's TestReplayMatchesLiveRun compares whole restarts with
// the runs that wrote their journals. These tests pin what it cannot see from
// outside: chunks whose scans finish out of order are still applied in
// journal order, an empty journal starts no goroutine, and the replay's
// memory does not grow with the journal.

func xc30Model(t testing.TB) *predictor.Model {
	t.Helper()
	d := loggen.DialectXC30
	m, err := predictor.Compile(d.Chains(), d.Inventory(), predictor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestLocal builds and starts a shard over model; dir "" disables
// persistence.
func newTestLocal(t testing.TB, model *predictor.Model, dir string, workers int, arb bool) *Local {
	t.Helper()
	cfg := Config{
		Dir: dir, Fsync: wal.SyncOff,
		Logf:    func(string, ...any) {},
		Publish: func(predictor.Output) {},
	}
	if arb {
		cfg.Arbiter = &arbiter.Config{AlertThreshold: 1e-9, Horizon: 20 * time.Minute}
	}
	l := New(model.NewManager(workers), cfg)
	l.Start()
	return l
}

func closeTestLocal(t testing.TB, l *Local) {
	t.Helper()
	l.FinishIngest(true) // no final snapshot: a benchmark replays the journal again
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeBenignJournal journals n lines shaped like the benchmark's benign
// stream — 64 XC30 nodes at 3.3 benign lines a minute with rare chains, 1.2%
// of lines tokenizing — as one 5-hour block repeated with the date moved a
// day on per pass, so every node's timestamps keep rising and the gap
// between passes resets any partial match. With a model, it journals the
// lines the way the edge does: per 256-line batch, a discard mark for each
// line the model drops, then the batch's other lines whole.
func writeBenignJournal(t testing.TB, dir string, n int, model *predictor.Model) {
	t.Helper()
	lg, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 5, Duration: 5 * time.Hour,
		Nodes: 64, BenignPerMinute: 3.3, Failures: 40, AnomalyRate: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	block := lg.Lines()
	first := lg.Events[0].Time.UTC().Truncate(24 * time.Hour)
	wl, err := wal.Open(dir+"/wal", wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var marks, recs [][]byte
	flush := func() {
		if _, err := wl.AppendBatch(append(marks, recs...)); err != nil {
			t.Fatal(err)
		}
		marks, recs = marks[:0], recs[:0]
	}
	for i := 0; i < n; i++ {
		pass, j := i/len(block), i%len(block)
		rec := append([]byte(first.AddDate(0, 0, pass).Format("2006-01-02")), block[j][len("2006-01-02"):]...)
		if model != nil {
			if _, ok, err := model.Scanner().ScanLine(string(rec)); err == nil && !ok {
				marks = append(marks, markRecord)
				rec = nil
			}
		}
		if rec != nil {
			recs = append(recs, rec)
		}
		if len(marks)+len(recs) == 256 {
			flush()
		}
	}
	if len(marks)+len(recs) > 0 {
		flush()
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayAppliesChunksInJournalOrder: with a scan stage that holds back
// every third chunk, later chunks finish first, and the sequencer still
// applies them in journal order — per-node outputs, counters and parse-error
// count equal the live batch path's on the same lines.
func TestReplayAppliesChunksInJournalOrder(t *testing.T) {
	lg, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 17, Duration: 3 * time.Hour,
		Nodes: 16, Failures: 8, BenignPerMinute: 2, AnomalyRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	malformed := 0
	for i, line := range lg.Lines() {
		if i%211 == 7 {
			lines = append(lines, fmt.Sprintf("not a log line %d", i))
			malformed++
		}
		lines = append(lines, line)
	}
	if len(lines) < 8*replayChunkLines {
		t.Fatalf("only %d lines: too few chunks to reorder", len(lines))
	}
	model := xc30Model(t)

	perNode := func(outs []predictor.Output) map[string][]string {
		m := map[string][]string{}
		for _, out := range outs {
			if p := out.Prediction; p != nil {
				m[p.Node] = append(m[p.Node], fmt.Sprintf("P %s %s", p.ChainName, p.MatchedAt.Format(time.RFC3339Nano)))
			}
			if f := out.Failure; f != nil {
				m[f.Node] = append(m[f.Node], fmt.Sprintf("F %d %s", f.Phrase, f.Time.Format(time.RFC3339Nano)))
			}
		}
		return m
	}

	ref := model.NewManager(3)
	var refOuts []predictor.Output
	refDone := make(chan struct{})
	go func() {
		defer close(refDone)
		for out := range ref.Results() {
			refOuts = append(refOuts, out)
		}
	}()
	refErrs := 0
	for i := 0; i < len(lines); i += replayChunkLines {
		pe, err := ref.ProcessLineBatch(lines[i:min(i+replayChunkLines, len(lines))])
		if err != nil {
			t.Fatal(err)
		}
		refErrs += pe
	}
	ref.Close()
	<-refDone
	if len(refOuts) == 0 {
		t.Fatal("reference run produced no outputs; the comparison would be vacuous")
	}

	chunkOf := map[string]int{} // first line of a chunk → its position
	for i := 0; i < len(lines); i += replayChunkLines {
		chunkOf[lines[i]] = i / replayChunkLines
	}
	l := newTestLocal(t, model, "", 3, false)
	l.recoveryActive.Store(true)
	r := newReplay(l)
	var (
		picked   atomic.Int64
		mu       sync.Mutex
		finished []int
	)
	scan := r.scan
	r.scan = func(c *replayChunk, names nodeNames) {
		if picked.Add(1)%3 == 1 {
			time.Sleep(2 * time.Millisecond)
		}
		scan(c, names)
		mu.Lock()
		finished = append(finished, chunkOf[string(c.text[:c.ends[0]])])
		mu.Unlock()
	}
	for _, line := range lines {
		if err := r.line([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.finish(); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	got, st := l.Recovered(), l.Manager().Stats()
	closeTestLocal(t, l)

	inversions := 0
	for i := 1; i < len(finished); i++ {
		if finished[i] < finished[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatalf("chunks finished in journal order %v: nothing was reordered", finished)
	}
	want, have := perNode(refOuts), perNode(got)
	if len(have) != len(want) {
		t.Fatalf("outputs for %d nodes, live batch path %d", len(have), len(want))
	}
	for node, w := range want {
		if fmt.Sprint(have[node]) != fmt.Sprint(w) {
			t.Errorf("node %s: replay %v, live batch path %v", node, have[node], w)
		}
	}
	if refSt := ref.Stats(); st != refSt {
		t.Errorf("replay stats %+v, live batch path %+v", st, refSt)
	}
	if int(r.parseErrors) != malformed || refErrs != malformed {
		t.Errorf("replay counted %d parse errors, live batch path %d, want %d", r.parseErrors, refErrs, malformed)
	}
	if int(r.toks) != st.Tokens {
		t.Errorf("replay reports %d tokens, the manager counted %d", r.toks, st.Tokens)
	}
}

// TestReplayEmptyJournalStartsNothing: a fresh data dir recovers without
// leaving a goroutine behind (the replay stages start with the first record).
func TestReplayEmptyJournalStartsNothing(t *testing.T) {
	l := newTestLocal(t, xc30Model(t), t.TempDir(), 2, true)
	defer closeTestLocal(t, l)
	before := runtime.NumGoroutine()
	if err := l.Open(nil); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("recovering an empty journal left %d goroutines running, %d before", after, before)
	}
	if rec := l.Stats().Recovery; rec == nil || rec.Performed || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery of an empty journal: %+v", rec)
	}
}

// TestOpenReadsJournalOnce: a boot reads its journal once — finding the
// torn tail and replaying are one pass (wal.OpenReplay) — for a plain and a
// marked journal that each end in a torn record.
func TestOpenReadsJournalOnce(t *testing.T) {
	model := xc30Model(t)
	for _, marked := range []bool{false, true} {
		t.Run(fmt.Sprintf("marks=%v", marked), func(t *testing.T) {
			dir := t.TempDir()
			var m *predictor.Model
			if marked {
				m = model
			}
			writeBenignJournal(t, dir, 64<<10, m)
			segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no journal segments (%v)", err)
			}
			f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.Write([]byte{0, 0, 0, 40, 1, 2, 3}) // a crash mid-append
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			var size int64
			for _, seg := range segs {
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				size += fi.Size()
			}

			l := newTestLocal(t, model, dir, 2, false)
			defer closeTestLocal(t, l)
			var read atomic.Int64
			wal.TestHookReadBytes.Store(&read)
			err = l.Open(nil)
			wal.TestHookReadBytes.Store(nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := read.Load(); n != size {
				t.Fatalf("boot read %d journal bytes of %d on disk (%.2f times)", n, size, float64(n)/float64(size))
			}
			if rec := l.Stats().Recovery; rec.ReplayedRecords == 0 {
				t.Fatal("nothing replayed")
			}
		})
	}
}

// TestOpenDamagedSegmentHeader: a damaged header on a segment after the
// first — a rolled one or the final one — fails the boot with wal.ErrCorrupt
// and changes no file. The one replay pass reaches that header only after the
// segments before it were replayed into the shard (DESIGN row 46); the boot
// fails all the same.
func TestOpenDamagedSegmentHeader(t *testing.T) {
	model := xc30Model(t)
	line := []byte("2015-03-14T09:26:53Z c0-0c0s0n1 hello")
	for _, which := range []string{"rolled", "final"} {
		t.Run(which, func(t *testing.T) {
			dir := t.TempDir()
			wl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncOff, SegmentSize: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			batch := make([][]byte, 16)
			for i := range batch {
				batch[i] = line
			}
			for i := 0; i < 24; i++ {
				if _, err := wl.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := wl.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
			if err != nil || len(segs) < 3 {
				t.Fatalf("%d journal segments, want at least 3 (%v)", len(segs), err)
			}
			damaged := segs[1]
			if which == "final" {
				damaged = segs[len(segs)-1]
			}
			img, err := os.ReadFile(damaged)
			if err != nil {
				t.Fatal(err)
			}
			img[0] ^= 0xff // the segment magic
			if err := os.WriteFile(damaged, img, 0o644); err != nil {
				t.Fatal(err)
			}
			before := make(map[string]string, len(segs))
			for _, seg := range segs {
				b, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				before[seg] = string(b)
			}

			l := newTestLocal(t, model, dir, 2, false)
			defer closeTestLocal(t, l)
			if err := l.Open(nil); !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("Open of a journal with a damaged %s segment header = %v, want ErrCorrupt", which, err)
			}
			for _, seg := range segs {
				if b, err := os.ReadFile(seg); err != nil || string(b) != before[seg] {
					t.Fatalf("failed boot changed %s (%v)", filepath.Base(seg), err)
				}
			}
		})
	}
}

// heapPeak samples the heap's object bytes until stop closes and returns the
// largest reading.
func heapPeak(stop <-chan struct{}) <-chan uint64 {
	peak := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var max uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	return peak
}

// TestReplayMemoryBounded: replaying a journal four times longer does not
// raise the peak heap — a fixed pool of chunks is in flight however long the
// journal is.
func TestReplayMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and replays 320k journaled lines")
	}
	model := xc30Model(t)
	peakFor := func(n int) uint64 {
		dir := t.TempDir()
		writeBenignJournal(t, dir, n, nil)
		l := newTestLocal(t, model, dir, 2, false)
		defer closeTestLocal(t, l)
		runtime.GC()
		stop := make(chan struct{})
		peak := heapPeak(stop)
		err := l.Open(nil)
		close(stop)
		if err != nil {
			t.Fatal(err)
		}
		if rec := l.Stats().Recovery; rec.ReplayedRecords != uint64(n) {
			t.Fatalf("replayed %d records, journaled %d", rec.ReplayedRecords, n)
		}
		return <-peak
	}
	short, long := peakFor(64<<10), peakFor(256<<10)
	t.Logf("peak heap replaying 64k lines %.1f MiB, 256k lines %.1f MiB", float64(short)/(1<<20), float64(long)/(1<<20))
	if limit := short + short/4 + 2<<20; long > limit {
		t.Fatalf("peak heap %d B replaying a journal 4x longer, %d B for the shorter one", long, short)
	}
}

// BenchmarkReplay times boot replay of a benign journal (see
// writeBenignJournal): every line journaled whole, with and without the
// arbiter, and the edge's marked journal (no arbiter: the edge writes marks
// only without one). ns/line is the figure EXPERIMENTS compares across
// changes; peak-heap-MiB the heap high-water mark during the replay.
func BenchmarkReplay(b *testing.B) {
	const lines = 1 << 20
	model := xc30Model(b)
	plain, marked := b.TempDir(), b.TempDir()
	writeBenignJournal(b, plain, lines, nil)
	writeBenignJournal(b, marked, lines, model)
	for _, row := range []struct {
		name string
		dir  string
		arb  bool
	}{
		{"arbiter=false", plain, false},
		{"arbiter=true", plain, true},
		{"marks", marked, false},
	} {
		b.Run(row.name, func(b *testing.B) {
			var took []time.Duration
			var peak uint64
			for i := 0; i < b.N; i++ {
				l := newTestLocal(b, model, row.dir, 0, row.arb)
				runtime.GC()
				stop := make(chan struct{})
				p := heapPeak(stop)
				began := time.Now()
				err := l.Open(nil)
				took = append(took, time.Since(began))
				close(stop)
				if err != nil {
					b.Fatal(err)
				}
				peak = max(peak, <-p)
				if rec := l.Stats().Recovery; rec.ReplayedRecords != lines {
					b.Fatalf("replayed %d records, journaled %d", rec.ReplayedRecords, lines)
				}
				closeTestLocal(b, l)
			}
			sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds())/lines, "ns/line")
			b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MiB")
		})
	}
}
