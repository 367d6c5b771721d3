package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/wal"
)

// The journal's record format is a contract with every data dir already on
// disk: these tests pin how each payload decodes, and replay two committed
// journals — one as every release before discard marks wrote it, one with
// marks — into fresh shards.

func TestDecodeRecordBytes(t *testing.T) {
	for _, c := range []struct {
		payload string
		kind    int
		body    string
	}{
		{"2015-03-14T09:26:53Z c0-0c0s0n1 hello", recKindLine, "2015-03-14T09:26:53Z c0-0c0s0n1 hello"},
		{"", recKindLine, ""},
		{"d", recKindLine, "d"},
		{"\x00l", recKindLine, ""},
		{"\x00l\x00d", recKindLine, "\x00d"}, // a line that looks like a mark, escaped
		{"\x00m0123456789abcdef", recKindEpoch, "0123456789abcdef"},
		{"\x00m0123", recKindUnknown, ""},
		{"\x00d", recKindMark, ""},
		{"\x00d\x00", recKindUnknown, ""},
		{"\x00dd", recKindUnknown, ""},
		{"\x00d0123456789abcdef", recKindUnknown, ""},
		{"\x00", recKindUnknown, ""},
		{"\x00x", recKindUnknown, ""},
	} {
		kind, body := decodeRecordBytes([]byte(c.payload))
		if kind != c.kind || string(body) != c.body {
			t.Errorf("decodeRecordBytes(%q) = %d %q, want %d %q", c.payload, kind, body, c.kind, c.body)
		}
	}
	for _, line := range []string{"\x00", "\x00d", "\x00dx", "\x00m0123456789abcdef", "\x00l"} {
		kind, body := decodeRecordBytes(appendLineRecord(nil, line))
		if kind != recKindLine || string(body) != line {
			t.Errorf("line %q round-trips as %d %q", line, kind, body)
		}
	}
}

// TestReplayCountsUnknownRecords: a record that merely starts like a mark is
// a replay error, never a line and never a mark.
func TestReplayCountsUnknownRecords(t *testing.T) {
	dir := t.TempDir()
	line := "2015-03-14T09:26:53Z c0-0c0s0n1 hello"
	writeJournal(t, dir, [][]byte{[]byte(line), markRecord, []byte("\x00dd"), []byte("\x00d\x00")})
	l := newTestLocal(t, xc30Model(t), dir, 2, false)
	defer closeTestLocal(t, l)
	if err := l.Open(nil); err != nil {
		t.Fatal(err)
	}
	rec, st := l.Stats().Recovery, l.Manager().Stats()
	if rec.ReplayedRecords != 4 || rec.ReplayedMarks != 1 || rec.ReplayErrors != 2 {
		t.Fatalf("replayed %d records, %d marks, %d errors; want 4, 1, 2", rec.ReplayedRecords, rec.ReplayedMarks, rec.ReplayErrors)
	}
	if st.LinesScanned != 2 || st.Discarded != 2 {
		t.Fatalf("manager scanned %d, discarded %d; want 2, 2 (one line, one mark)", st.LinesScanned, st.Discarded)
	}
}

// TestReplayRunsOfMarks: long runs of marks, split by lines and by runs of
// other small identical records, count as one replayed record and one
// discarded line per mark; the other runs are handled one record at a time.
func TestReplayRunsOfMarks(t *testing.T) {
	line := []byte("2015-03-14T09:26:53Z c0-0c0s0n1 hello")
	var recs [][]byte
	add := func(rec []byte, n int) {
		for ; n > 0; n-- {
			recs = append(recs, rec)
		}
	}
	add(line, 1)
	add(markRecord, 500)
	add([]byte("\x00x"), 3) // unknown: a replay error each
	add([]byte("junk"), 4)  // a line that does not parse: a parse error each
	add(markRecord, 300)
	add(line, 2)
	dir := t.TempDir()
	writeJournal(t, dir, recs)
	l := newTestLocal(t, xc30Model(t), dir, 2, false)
	defer closeTestLocal(t, l)
	if err := l.Open(nil); err != nil {
		t.Fatal(err)
	}
	rec, st := l.Stats().Recovery, l.Manager().Stats()
	if rec.ReplayedRecords != 810 || rec.ReplayedMarks != 800 || rec.ReplayErrors != 7 || rec.ReplayBytes != 3*37+800*2+3*2+4*4 {
		t.Fatalf("replayed %d records, %d marks, %d errors, %d bytes; want 810, 800, 7, %d",
			rec.ReplayedRecords, rec.ReplayedMarks, rec.ReplayErrors, rec.ReplayBytes, 3*37+800*2+3*2+4*4)
	}
	if st.LinesScanned != 803 || st.Discarded != 803 {
		t.Fatalf("manager scanned %d, discarded %d; want 803, 803 (three lines, 800 marks)", st.LinesScanned, st.Discarded)
	}
}

// TestCountDiscardedNeedsRegistry: a journaled shard with no model registry
// refuses the edge's counts — nothing on disk would say which model a mark
// was scanned under — and its lines take the full path.
func TestCountDiscardedNeedsRegistry(t *testing.T) {
	model := xc30Model(t)
	l := newTestLocal(t, model, t.TempDir(), 2, false)
	defer closeTestLocal(t, l)
	if err := l.Open(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.CountDiscarded(model, 3); !errors.Is(err, ErrEveryLine) {
		t.Fatalf("CountDiscarded on a journal without a registry = %v, want ErrEveryLine", err)
	}
	if last := l.wlog.LastIndex(); last != 0 {
		t.Fatalf("refused counts journaled %d records", last)
	}
}

func writeJournal(t *testing.T, dir string, recs [][]byte) {
	t.Helper()
	wl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
}

// Committed journals, one segment each, written from one stream: XC30 on four
// nodes with one injected failure chain, a NUL-led line (journaled under the
// "\x00l" escape) and a line that does not parse. journal-plain holds every
// line verbatim, as every release before discard marks wrote it;
// journal-marks holds what a daemon with marks writes: per 32-line chunk, a
// mark for each line the model drops, then the chunk's other lines. Run with
// UPDATE_JOURNAL_FIXTURES=1 to rewrite them — only for a deliberate format
// change, since old data dirs keep the old bytes.
const (
	fixtureRecords = 302
	fixtureMarks   = 282
	fixtureErrors  = 2 // the NUL-led line and the line that does not parse
	fixtureTokens  = 18
	fixtureOutputs = 2 // the chain's prediction and its failure

	fixturePlainBytes = 25190
	fixtureMarksBytes = 2053
)

func writeJournalFixtures(t *testing.T, model *predictor.Model) {
	t.Helper()
	lg, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 23, Duration: 45 * time.Minute,
		Nodes: 4, Failures: 1, BenignPerMinute: 2, AnomalyRate: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, line := range lg.Lines() {
		switch i {
		case 10:
			lines = append(lines, "\x00"+line)
		case 20:
			lines = append(lines, "not a log line")
		}
		lines = append(lines, line)
	}
	var plain, marked [][]byte
	for i := 0; i < len(lines); i += 32 {
		var kept [][]byte
		for _, line := range lines[i:min(i+32, len(lines))] {
			rec := appendLineRecord(nil, line)
			plain = append(plain, rec)
			if _, ok, err := model.Scanner().ScanLine(line); err == nil && !ok {
				marked = append(marked, markRecord)
			} else {
				kept = append(kept, rec)
			}
		}
		marked = append(marked, kept...)
	}
	for name, recs := range map[string][][]byte{"journal-plain": plain, "journal-marks": marked} {
		dir := filepath.Join("testdata", name)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		writeJournal(t, dir, recs)
	}
}

// copyFixture copies a committed journal into a fresh data dir.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join("testdata", name, "wal", "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("%s: want one committed segment, found %v (%v)", name, segs, err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", filepath.Base(segs[0])), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// replayFixture replays a committed journal into a fresh shard and returns
// what the shard recovered.
func replayFixture(t *testing.T, model *predictor.Model, name string) (*RecoveryStatus, predictor.Stats, []string) {
	t.Helper()
	l := newTestLocal(t, model, copyFixture(t, name), 3, false)
	if err := l.Open(nil); err != nil {
		t.Fatal(err)
	}
	rec, st := *l.Stats().Recovery, l.Manager().Stats()
	var outs []string
	for _, out := range l.Recovered() {
		outs = append(outs, outString(out))
	}
	closeTestLocal(t, l)
	sort.Strings(outs)
	return &rec, st, outs
}

func outString(out predictor.Output) string {
	if p := out.Prediction; p != nil {
		return fmt.Sprintf("P %s %s %s", p.Node, p.ChainName, p.MatchedAt.Format(time.RFC3339Nano))
	}
	if f := out.Failure; f != nil {
		return fmt.Sprintf("F %s %d %s", f.Node, f.Phrase, f.Time.Format(time.RFC3339Nano))
	}
	return ""
}

// TestReplayJournalFixtures: both committed journals replay into the counters
// and predictions committed here, and into those of a sequential predictor
// over the lines of the plain journal; a mark counts as the discarded line it
// stands for. (The release before marks counts each as a replay error and
// loses no prediction: a mark stands for a line no chain needs.)
func TestReplayJournalFixtures(t *testing.T) {
	model := xc30Model(t)
	if os.Getenv("UPDATE_JOURNAL_FIXTURES") != "" {
		writeJournalFixtures(t, model)
	}
	var lines []string
	wl, err := wal.Open(filepath.Join(copyFixture(t, "journal-plain"), "wal"), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	err = wl.Replay(1, func(_ uint64, payload []byte) error {
		if kind, body := decodeRecordBytes(payload); kind == recKindLine {
			lines = append(lines, string(body))
		}
		return nil
	})
	if cerr := wl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	ref := model.NewPredictor()
	var want []string
	for _, line := range lines {
		if out, err := ref.ProcessLine(line); err == nil && outString(out) != "" {
			want = append(want, outString(out))
		}
	}
	sort.Strings(want)
	refSt := ref.Stats()
	if len(lines) != fixtureRecords || len(want) != fixtureOutputs || refSt.Tokens != fixtureTokens || refSt.Discarded != fixtureMarks {
		t.Fatalf("fixture stream: %d lines, %d outputs, %d tokens, %d discarded; the committed journals hold %d, %d, %d, %d",
			len(lines), len(want), refSt.Tokens, refSt.Discarded, fixtureRecords, fixtureOutputs, fixtureTokens, fixtureMarks)
	}
	for _, c := range []struct {
		name         string
		marks, bytes uint64
	}{{"journal-plain", 0, fixturePlainBytes}, {"journal-marks", fixtureMarks, fixtureMarksBytes}} {
		rec, st, outs := replayFixture(t, model, c.name)
		if rec.ReplayedRecords != fixtureRecords || rec.ReplayedMarks != c.marks || rec.ReplayErrors != fixtureErrors ||
			rec.ReplayTokens != fixtureTokens || rec.ReplayBytes != c.bytes || rec.RecoveredOutputs != fixtureOutputs {
			t.Errorf("%s: recovery %+v; want %d records, %d marks, %d errors, %d tokens, %d bytes, %d outputs", c.name, *rec,
				fixtureRecords, c.marks, fixtureErrors, fixtureTokens, c.bytes, fixtureOutputs)
		}
		if st.LinesScanned != fixtureRecords-fixtureErrors || st.Tokens != refSt.Tokens || st.Discarded != refSt.Discarded {
			t.Errorf("%s: manager scanned/tokens/discarded %d/%d/%d, want %d/%d/%d", c.name,
				st.LinesScanned, st.Tokens, st.Discarded, fixtureRecords-fixtureErrors, refSt.Tokens, refSt.Discarded)
		}
		if strings.Join(outs, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: recovered predictions\n%v\nwant\n%v", c.name, outs, want)
		}
	}
}
