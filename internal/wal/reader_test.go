package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// oracleReadRecord and oracleCountReader are the per-record reader segReader
// replaced (two io.ReadFull calls a record), kept verbatim as the reference
// the buffered reader must agree with.
func oracleReadRecord(r io.Reader, buf []byte) ([]byte, bool) {
	var hdr [recHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, false // EOF or torn header
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxRecordSize {
		return nil, false
	}
	want := binary.BigEndian.Uint32(hdr[4:])
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, false // torn payload
	}
	if crc32.Checksum(buf, crcTable) != want {
		return nil, false
	}
	return buf, true
}

type oracleCountReader struct {
	r io.Reader
	n int64
}

func (c *oracleCountReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// oracleScan reads a segment body (the bytes after the header) with the old
// reader: the intact records and the segment offset just past the last one.
func oracleScan(body []byte) (recs [][]byte, end int64) {
	r := &oracleCountReader{r: bytes.NewReader(body)}
	end = headerSize
	for {
		p, ok := oracleReadRecord(r, nil)
		if !ok {
			return recs, end
		}
		recs = append(recs, p)
		end = headerSize + r.n
	}
}

// readerScan reads a whole segment image through segReader.nextRun with a
// buffer of bufSize bytes and runs of at most limit records, expanding every
// run into its records; steps is the number of nextRun calls that returned
// one.
func readerScan(t testing.TB, seg []byte, base uint64, bufSize int, limit uint64) (recs [][]byte, end int64, steps int) {
	t.Helper()
	sr := segReader{src: bytes.NewReader(seg), buf: make([]byte, bufSize)}
	if err := sr.header("seg", base); err != nil {
		t.Fatalf("header: %v", err)
	}
	for {
		p, n, ok := sr.nextRun(limit)
		if !ok {
			return recs, sr.off, steps
		}
		if n < 1 || n > limit {
			t.Fatalf("run of %d records under a limit of %d", n, limit)
		}
		steps++
		for ; n > 0; n-- {
			recs = append(recs, append([]byte{}, p...))
		}
	}
}

func segHeader(base uint64) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, segMagic)
	binary.BigEndian.PutUint64(hdr[8:], base)
	return hdr
}

func appendRecord(seg, payload []byte) []byte {
	seg = binary.BigEndian.AppendUint32(seg, uint32(len(payload)))
	seg = binary.BigEndian.AppendUint32(seg, crc32.Checksum(payload, crcTable))
	return append(seg, payload...)
}

var (
	readerBufSizes = []int{16, 1 << 10, 1 << 20}
	// Run limits: one record a step (next's path), a limit that cuts runs,
	// and none.
	readerRunLimits = []uint64{1, 3, math.MaxUint64}
)

func checkAgainstOracle(t *testing.T, seg []byte, base uint64) {
	t.Helper()
	wantRecs, wantEnd := oracleScan(seg[headerSize:])
	for _, size := range readerBufSizes {
		for _, limit := range readerRunLimits {
			recs, end, _ := readerScan(t, seg, base, size, limit)
			if end != wantEnd {
				t.Fatalf("buffer %d, limit %d: end offset %d, oracle %d", size, limit, end, wantEnd)
			}
			if len(recs) != len(wantRecs) {
				t.Fatalf("buffer %d, limit %d: %d records, oracle %d", size, limit, len(recs), len(wantRecs))
			}
			for i := range recs {
				if !bytes.Equal(recs[i], wantRecs[i]) {
					t.Fatalf("buffer %d, limit %d: record %d is %q, oracle %q", size, limit, i, recs[i], wantRecs[i])
				}
			}
		}
	}
}

// markRun appends n discard marks (payload "\x00d"), the record that runs
// are made of in practice.
func markRun(seg []byte, n int) []byte {
	for ; n > 0; n-- {
		seg = appendRecord(seg, markPayload)
	}
	return seg
}

// FuzzSegmentReader: arbitrary bytes after a valid header yield, at every
// buffer size, exactly the records and the end offset the per-record reader
// yields.
func FuzzSegmentReader(f *testing.F) {
	var good []byte
	for _, p := range []string{"seed record one", "", "seed record two, longer than sixteen bytes"} {
		good = appendRecord(good, []byte(p))
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:recHdrSize-2])
	flipped := append([]byte(nil), good...)
	flipped[recHdrSize+1] ^= 0x10
	f.Add(flipped)
	f.Add(appendRecord(good, bytes.Repeat([]byte{'x'}, 3000)))
	f.Add(binary.BigEndian.AppendUint32(append([]byte(nil), good...), maxRecordSize+1))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(make([]byte, 64))
	// Run-heavy bodies: long mark runs between records, a run of the largest
	// record that starts one, a run broken by one flipped bit in its header
	// or payload, and a run whose last copy is torn.
	runs := markRun(appendRecord(markRun(nil, 300), []byte("a kept line between two runs")), 150)
	f.Add(runs)
	f.Add(appendRecord(appendRecord(appendRecord(nil, []byte("12345678")), []byte("12345678")), []byte("12345678")))
	for _, at := range []int{3, 6, 9} { // length, CRC, payload of the 41st copy
		broken := markRun(nil, 100)
		broken[40*(recHdrSize+2)+at] ^= 0x04
		f.Add(broken)
	}
	f.Add(runs[:len(runs)-4])

	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, append(segHeader(7), body...), 7)
	})
}

func TestSegmentReaderBufferBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name     string
		payloads []int // payload lengths, filled with a per-record byte
		copies   int   // copies of each record, back to back (0 means 1)
		steps    int   // nextRun calls a 1 MiB buffer needs for the segment (0: one per record)
	}{
		// 16-byte header fills the smallest buffer exactly; 8+8 byte records
		// then sit flush against its end.
		{name: "flush", payloads: []int{8, 8, 8}},
		// Records that start in one buffer-full and end in the next, at both
		// the 16 B and the 1 KiB size.
		{name: "straddle", payloads: []int{5, 11, 3, 1000, 30, 7}},
		{name: "larger than buffer", payloads: []int{1, 5000, 2, 3 << 20, 4}},
		// The two leading empty records are the same record: one run.
		{name: "zero length", payloads: []int{0, 0, 9, 0}, steps: 3},
		{name: "empty"},
		// Runs of 400 copies (3200 to 6400 bytes) cross the 16 B and 1 KiB
		// buffers many times over; the 16-byte records (the largest that
		// start a run) sit flush against both. A 1 MiB buffer holds each
		// whole, one step a run.
		{name: "runs across buffers", payloads: []int{2, 2, 0, 8, 1}, copies: 400, steps: 5},
		// 17-byte records are past the run cap: one step each.
		{name: "copies over the run cap", payloads: []int{9, 9}, copies: 70},
		// A run of 103 copies fills the 1 KiB block pattern (102 marks) once
		// and then one more copy.
		{name: "run one past a block", payloads: []int{2}, copies: 103, steps: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seg := segHeader(1)
			copies := max(tc.copies, 1)
			for i, n := range tc.payloads {
				for c := 0; c < copies; c++ {
					seg = appendRecord(seg, bytes.Repeat([]byte{byte('a' + i)}, n))
				}
			}
			checkAgainstOracle(t, seg, 1)
			want := len(tc.payloads) * copies
			recs, end, _ := readerScan(t, seg, 1, 16, math.MaxUint64)
			if len(recs) != want || end != int64(len(seg)) {
				t.Fatalf("read %d records to offset %d, want %d to %d", len(recs), end, want, len(seg))
			}
			wantSteps := tc.steps
			if wantSteps == 0 {
				wantSteps = want
			}
			if _, _, steps := readerScan(t, seg, 1, 1<<20, math.MaxUint64); steps != wantSteps {
				t.Fatalf("a 1 MiB buffer read the segment in %d steps, want %d", steps, wantSteps)
			}
		})
	}
}

func TestSegmentReaderHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		seg  []byte
		want error
	}{
		{"empty file", nil, io.EOF},
		{"short", segHeader(3)[:10], io.EOF},
		{"bad magic", append([]byte("NOTAWAL\n"), segHeader(3)[8:]...), ErrCorrupt},
		{"wrong base", segHeader(4), ErrCorrupt},
		{"ok", segHeader(3), nil},
	} {
		sr := segReader{src: bytes.NewReader(tc.seg), buf: make([]byte, 64)}
		if err := sr.header("seg", 3); !errors.Is(err, tc.want) {
			t.Errorf("%s: header error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// tailDamage are the ways the bytes after the last intact record stop being a
// record. Each takes a segment image and the offset of its final record.
var tailDamage = []struct {
	name string
	do   func(seg []byte, lastRec int) []byte
}{
	{"torn header", func(seg []byte, lastRec int) []byte { return seg[:lastRec+3] }},
	{"torn payload", func(seg []byte, lastRec int) []byte { return seg[:len(seg)-2] }},
	{"flipped crc", func(seg []byte, lastRec int) []byte {
		seg[len(seg)-1] ^= 0x01
		return seg
	}},
	{"length over limit", func(seg []byte, lastRec int) []byte {
		binary.BigEndian.PutUint32(seg[lastRec:], maxRecordSize+1)
		return seg
	}},
}

// writeRolledJournal appends n records over several small segments and
// returns the segment bases and every payload.
func writeRolledJournal(t *testing.T, dir string, n int) (bases []uint64, payloads [][]byte) {
	t.Helper()
	l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("record %03d padded to a fixed width....", i))
		payloads = append(payloads, p)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	bases, err = listSegments(dir)
	if err != nil || len(bases) < 3 {
		t.Fatalf("want at least 3 segments, got %v (%v)", bases, err)
	}
	return bases, payloads
}

// damageSegment rewrites one segment file with its final record damaged and
// returns the offset the old reader stops at.
func damageSegment(t *testing.T, path string, do func([]byte, int) []byte) (oracleEnd int64) {
	t.Helper()
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastRec := headerSize
	for off := headerSize; off < len(seg); off += recHdrSize + int(binary.BigEndian.Uint32(seg[off:])) {
		lastRec = off
	}
	seg = do(seg, lastRec)
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, oracleEnd = oracleScan(seg[headerSize:])
	if oracleEnd != int64(lastRec) {
		t.Fatalf("oracle stops at %d, want the damaged record's offset %d", oracleEnd, lastRec)
	}
	return oracleEnd
}

// Damage at the tail of the last segment is a clean stop: Open truncates the
// file to the offset the old reader stopped at and the journal accepts
// appends again.
func TestDamagedTailOfLastSegmentRepaired(t *testing.T) {
	for _, dmg := range tailDamage {
		t.Run(dmg.name, func(t *testing.T) {
			dir := t.TempDir()
			bases, payloads := writeRolledJournal(t, dir, 20)
			lastPath := filepath.Join(dir, segName(bases[len(bases)-1]))
			wantEnd := damageSegment(t, lastPath, dmg.do)

			l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 256})
			if err != nil {
				t.Fatalf("damaged tail not repaired: %v", err)
			}
			defer l.Close()
			if fi, err := os.Stat(lastPath); err != nil || fi.Size() != wantEnd {
				t.Fatalf("segment is %d bytes after repair (%v), want %d", fi.Size(), err, wantEnd)
			}
			if got, want := l.LastIndex(), uint64(len(payloads)-1); got != want {
				t.Fatalf("last index %d after repair, want %d", got, want)
			}
			idxs, got := replayAll(t, l)
			if len(got) != len(payloads)-1 {
				t.Fatalf("replayed %d records, want %d", len(got), len(payloads)-1)
			}
			for i := range got {
				if idxs[i] != uint64(i+1) || !bytes.Equal(got[i], payloads[i]) {
					t.Fatalf("record %d replayed as index %d %q", i+1, idxs[i], got[i])
				}
			}
			if idx, err := l.Append([]byte("after repair")); err != nil || idx != uint64(len(payloads)) {
				t.Fatalf("append after repair: index %d, %v", idx, err)
			}
		})
	}
}

// The same damage in a rolled segment is corruption: the records before it
// replay, then Replay fails with ErrCorrupt.
func TestDamagedRolledSegmentIsCorrupt(t *testing.T) {
	for _, dmg := range tailDamage {
		t.Run(dmg.name, func(t *testing.T) {
			dir := t.TempDir()
			bases, _ := writeRolledJournal(t, dir, 20)
			damageSegment(t, filepath.Join(dir, segName(bases[1])), dmg.do)

			l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var last uint64
			err = l.Replay(1, func(idx uint64, _ []byte) error { last = idx; return nil })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay over a damaged rolled segment returned %v, want ErrCorrupt", err)
			}
			if want := bases[2] - 2; last != want {
				t.Fatalf("replay stopped after record %d, want %d (the one before the damage)", last, want)
			}
		})
	}
}

func TestReplayFromMidSegment(t *testing.T) {
	dir := t.TempDir()
	bases, payloads := writeRolledJournal(t, dir, 20)
	l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// One start inside a rolled segment, one inside the active segment, one
	// exactly on a segment base.
	for _, from := range []uint64{bases[1] + 1, bases[len(bases)-1] + 1, bases[2]} {
		want := from
		err := l.Replay(from, func(idx uint64, p []byte) error {
			if idx != want || !bytes.Equal(p, payloads[idx-1]) {
				t.Fatalf("from %d: got record %d %q, want %d %q", from, idx, p, want, payloads[want-1])
			}
			want++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want != uint64(len(payloads))+1 {
			t.Fatalf("from %d: replay ended before record %d", from, want)
		}
	}
}

func TestSegmentReaderAllocFree(t *testing.T) {
	seg := segHeader(1)
	for i := 0; i < 2000; i++ {
		seg = appendRecord(seg, []byte("2015-03-01T00:00:00.000Z c0-0c0s0n1 a line of ordinary length for the reader"))
	}
	// A 4 KiB buffer refills every few dozen records, so fill's compaction is
	// inside the measured loop.
	sr := segReader{src: bytes.NewReader(seg), buf: make([]byte, 4<<10)}
	if err := sr.header("seg", 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := sr.next(); !ok {
			t.Fatal("ran out of records")
		}
	})
	if allocs != 0 {
		t.Fatalf("segReader.next allocates %.1f times per record, want 0", allocs)
	}

	// The run path allocates its block pattern once per reader, on the first
	// run, and nothing after — also when runs of two different small records
	// alternate, so the pattern is refilled.
	seg = segHeader(1)
	for i := 0; i < 1000; i++ {
		seg = appendRecord(seg, []byte("2015-03-01T00:00:00.000Z c0-0c0s0n1 a line of ordinary length for the reader"))
		seg = markRun(seg, 300)
		for c := 0; c < 20; c++ {
			seg = appendRecord(seg, []byte("xy"))
		}
	}
	sr = segReader{src: bytes.NewReader(seg), buf: make([]byte, 4<<10)}
	if err := sr.header("seg", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the line, then the first run of marks
		if _, _, ok := sr.nextRun(math.MaxUint64); !ok {
			t.Fatal("ran out of records")
		}
	}
	if sr.pat == nil {
		t.Fatal("no block pattern after a run of marks")
	}
	pat := &sr.pat[0]
	allocs = testing.AllocsPerRun(1000, func() {
		if _, _, ok := sr.nextRun(math.MaxUint64); !ok {
			t.Fatal("ran out of records")
		}
	})
	if allocs != 0 {
		t.Fatalf("segReader.nextRun allocates %.1f times per step, want 0", allocs)
	}
	if &sr.pat[0] != pat {
		t.Fatal("the block pattern was allocated again")
	}
}
