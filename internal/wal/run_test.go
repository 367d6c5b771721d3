package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Runs of identical records through the Log: ReplayRuns cuts them where the
// replay window and the segments say, Open counts them, and a copy damaged
// anywhere in a run gets the verdict the same damage gets on its own.

var markPayload = []byte("\x00d")

// writeRunJournal journals twelve groups of a distinct line record and 40
// marks, then 30 more marks, over 512-byte segments, so mark runs cross
// segment rolls and the last segment ends in a run. It returns the segment
// bases and every payload.
func writeRunJournal(t *testing.T, dir string) (bases []uint64, payloads [][]byte) {
	t.Helper()
	l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 12; g++ {
		payloads = append(payloads, []byte(fmt.Sprintf("kept line %02d between two runs", g)))
		for i := 0; i < 40; i++ {
			payloads = append(payloads, markPayload)
		}
	}
	for i := 0; i < 30; i++ {
		payloads = append(payloads, markPayload)
	}
	if _, err := l.AppendBatch(payloads); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	bases, err = listSegments(dir)
	if err != nil || len(bases) < 4 {
		t.Fatalf("want at least 4 segments, got %v (%v)", bases, err)
	}
	return bases, payloads
}

// replayRuns returns every run ReplayRuns hands out from from, as
// [index, n] pairs, and the records they expand to.
func replayRuns(t *testing.T, l *Log, from uint64) (runs [][2]uint64, recs [][]byte) {
	t.Helper()
	err := l.ReplayRuns(from, func(idx uint64, p []byte, n uint64) error {
		runs = append(runs, [2]uint64{idx, n})
		for ; n > 0; n-- {
			recs = append(recs, append([]byte{}, p...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs, recs
}

func checkRecords(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d of the replay is %q, want %q", i, got[i], want[i])
		}
	}
}

// TestReplayRunsSplitAtSegmentRoll: no run spans two segments, a run of
// marks that a roll divides comes out as two runs, and Open counts runs to
// the same last index.
func TestReplayRunsSplitAtSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	bases, payloads := writeRunJournal(t, dir)
	l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.LastIndex(); got != uint64(len(payloads)) {
		t.Fatalf("Open counted %d records, journaled %d", got, len(payloads))
	}
	runs, recs := replayRuns(t, l, 1)
	checkRecords(t, recs, payloads)
	if len(runs) >= len(payloads)/4 {
		t.Fatalf("%d records replayed in %d steps: marks were not read as runs", len(payloads), len(runs))
	}
	split := 0
	for i, r := range runs {
		first, last := r[0], r[0]+r[1]-1
		for _, b := range bases {
			if first < b && last >= b {
				t.Fatalf("run %d..%d spans the segment that starts at %d", first, last, b)
			}
			if last+1 == b && i+1 < len(runs) && bytes.Equal(payloads[last-1], markPayload) && bytes.Equal(payloads[last], markPayload) {
				split++
			}
		}
	}
	if split == 0 {
		t.Fatal("no run of marks crosses a segment roll: the test journal does not exercise the split")
	}
}

// TestReplayRunsFromInsideRun: a replay from any index, inside a run or not,
// starts exactly there.
func TestReplayRunsFromInsideRun(t *testing.T) {
	dir := t.TempDir()
	_, payloads := writeRunJournal(t, dir)
	l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for from := uint64(1); from <= uint64(len(payloads))+1; from++ {
		runs, recs := replayRuns(t, l, from)
		if len(runs) > 0 && runs[0][0] != from {
			t.Fatalf("from %d: the replay starts at %d", from, runs[0][0])
		}
		checkRecords(t, recs, payloads[from-1:])
	}
}

// TestReplayRunsStopsAtCapturedIndex: a replay ends at the last index the
// log held when it started, even inside a run whose later copies are
// already in the file.
func TestReplayRunsStopsAtCapturedIndex(t *testing.T) {
	marks := make([][]byte, 100)
	for i := range marks {
		marks[i] = markPayload
	}
	t.Run("bytes past the capture", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.AppendBatch(marks); err != nil {
			t.Fatal(err)
		}
		// Copies a concurrent append has written but not yet counted.
		f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Write(markRun(nil, 50))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		runs, recs := replayRuns(t, l, 1)
		if len(recs) != len(marks) || len(runs) != 1 {
			t.Fatalf("replayed %d records in %d runs, want the %d appended in one", len(recs), len(runs), len(marks))
		}
	})
	t.Run("concurrent AppendBatch", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncOff, SegmentSize: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.AppendBatch(marks); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := l.AppendBatch(marks); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		defer func() { close(stop); wg.Wait() }()
		for round := 0; round < 20; round++ {
			before := l.LastIndex()
			var after, last uint64
			err := l.ReplayRuns(1, func(idx uint64, p []byte, n uint64) error {
				if after == 0 {
					after = l.LastIndex() // the capture lies between before and here
				}
				if idx != last+1 || !bytes.Equal(p, markPayload) {
					return fmt.Errorf("run at %d of %q after record %d", idx, p, last)
				}
				last = idx + n - 1
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if last < before || last > after {
				t.Fatalf("round %d: replay ended at %d; the log held %d before it and %d at its first record", round, last, before, after)
			}
		}
	})
}

// recordOffsets returns the offset of every whole record in a segment image.
func recordOffsets(seg []byte) []int {
	var offs []int
	for off := headerSize; off+recHdrSize <= len(seg); off += recHdrSize + int(binary.BigEndian.Uint32(seg[off:])) {
		offs = append(offs, off)
	}
	return offs
}

// runCopy finds the first run of at least 8 marks in a segment image and
// returns the offset of its sixth record and that record's position in the
// segment.
func runCopy(t *testing.T, seg []byte) (off, pos int) {
	t.Helper()
	mark := appendRecord(nil, markPayload)
	offs := recordOffsets(seg)
	run := bytes.Repeat(mark, 8)
	for start, off := range offs {
		if bytes.HasPrefix(seg[off:], run) {
			return offs[start+5], start + 5
		}
	}
	t.Fatal("no run of 8 marks in the segment")
	return 0, 0
}

// runDamage flips one bit of a mark record at off: its length (2 becomes 3),
// its CRC, or its payload ("\x00d" becomes "\x00e").
var runDamage = []struct {
	name string
	at   int
}{{"length", 3}, {"crc", 5}, {"payload", recHdrSize + 1}}

// TestRunCopyDamagedInRolledSegmentIsCorrupt: one flipped bit in the sixth
// copy of a run in a rolled segment is corruption at that record's index,
// after the five copies before it have replayed.
func TestRunCopyDamagedInRolledSegmentIsCorrupt(t *testing.T) {
	for _, dmg := range runDamage {
		t.Run(dmg.name, func(t *testing.T) {
			dir := t.TempDir()
			bases, _ := writeRunJournal(t, dir)
			path := filepath.Join(dir, segName(bases[1]))
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off, pos := runCopy(t, seg)
			seg[off+dmg.at] ^= 0x01
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			idx := bases[1] + uint64(pos)

			l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var last uint64
			err = l.ReplayRuns(1, func(i uint64, _ []byte, n uint64) error { last = i + n - 1; return nil })
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("record %d ", idx)) {
				t.Fatalf("replay over a damaged copy returned %v, want ErrCorrupt at record %d", err, idx)
			}
			if last != idx-1 {
				t.Fatalf("replay stopped after record %d, want %d (the copy before the damage)", last, idx-1)
			}
		})
	}
}

// TestRunCopyDamagedInLastSegmentRepaired: the same flipped bit in the last
// segment, or a torn final copy, is a tail Open cuts off just before that
// record.
func TestRunCopyDamagedInLastSegmentRepaired(t *testing.T) {
	cases := []struct {
		name string
		do   func(seg []byte) (damaged []byte, off, pos int)
	}{
		{"torn final copy", func(seg []byte) ([]byte, int, int) {
			offs := recordOffsets(seg)
			pos := len(offs) - 1
			if !bytes.Equal(seg[offs[pos]:], appendRecord(nil, markPayload)) || !bytes.Equal(seg[offs[pos-1]:offs[pos]], seg[offs[pos]:]) {
				t.Fatal("the last segment does not end in a run of marks")
			}
			return seg[:len(seg)-4], offs[pos], pos
		}},
	}
	for _, dmg := range runDamage {
		at := dmg.at
		cases = append(cases, struct {
			name string
			do   func(seg []byte) ([]byte, int, int)
		}{dmg.name, func(seg []byte) ([]byte, int, int) {
			off, pos := runCopy(t, seg)
			seg[off+at] ^= 0x01
			return seg, off, pos
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			bases, payloads := writeRunJournal(t, dir)
			base := bases[len(bases)-1]
			path := filepath.Join(dir, segName(base))
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			seg, off, pos := c.do(seg)
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			idx := base + uint64(pos)

			l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 512})
			if err != nil {
				t.Fatalf("damaged copy not repaired: %v", err)
			}
			defer l.Close()
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(off) {
				t.Fatalf("segment is %d bytes after repair (%v), want %d", fi.Size(), err, off)
			}
			if got := l.LastIndex(); got != idx-1 {
				t.Fatalf("last index %d after repair, want %d", got, idx-1)
			}
			_, recs := replayRuns(t, l, 1)
			checkRecords(t, recs, payloads[:idx-1])
			if got, err := l.Append(markPayload); err != nil || got != idx {
				t.Fatalf("append after repair: index %d, %v; want %d", got, err, idx)
			}
		})
	}
}
