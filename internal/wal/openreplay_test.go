package wal

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// OpenReplay reads the journal once where Open followed by ReplayRuns reads
// it twice: these tests hold the one pass to the two on every kind of tail,
// damage and replay window — the runs delivered, the last index, the active
// segment's size and every segment file's length afterwards.

// routeResult is what one route from a journal directory to an opened and
// replayed Log delivered and left behind.
type routeResult struct {
	runs  []string // one "index+n payload" per run
	err   error
	last  uint64           // LastIndex, when the route opened the Log
	size  int64            // the active segment's size, likewise
	files map[string]int64 // every file's length afterwards
}

func fileSizes(tb testing.TB, dir string) map[string]int64 {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			tb.Fatal(err)
		}
		sizes[e.Name()] = fi.Size()
	}
	return sizes
}

// copyJournal copies every file of dir into a fresh directory.
func copyJournal(tb testing.TB, dir string) string {
	tb.Helper()
	dst := tb.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return dst
}

// recordRuns returns a replay callback that notes each run and fails with
// errStop once it has seen stopAfter runs (never when stopAfter is 0).
func recordRuns(runs *[]string, stopAfter int) func(uint64, []byte, uint64) error {
	return func(idx uint64, p []byte, n uint64) error {
		*runs = append(*runs, fmt.Sprintf("%d+%d %q", idx, n, p))
		if len(*runs) == stopAfter {
			return errStop
		}
		return nil
	}
}

var errStop = errors.New("stop the replay")

func viaOpenThenReplay(tb testing.TB, dir string, from uint64, stopAfter int) (r routeResult) {
	tb.Helper()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err == nil {
		err = l.ReplayRuns(from, recordRuns(&r.runs, stopAfter))
		r.last, r.size = l.LastIndex(), l.segSize
		if cerr := l.Close(); cerr != nil {
			tb.Fatal(cerr)
		}
	}
	r.err = err
	r.files = fileSizes(tb, dir)
	return r
}

func viaOpenReplay(tb testing.TB, dir string, from uint64, stopAfter int) (r routeResult) {
	tb.Helper()
	l, err := OpenReplay(dir, Options{Sync: SyncOff}, from, recordRuns(&r.runs, stopAfter))
	if err == nil {
		r.last, r.size = l.LastIndex(), l.segSize
		if cerr := l.Close(); cerr != nil {
			tb.Fatal(cerr)
		}
	} else if l != nil {
		tb.Fatalf("OpenReplay returned a Log with error %v", err)
	}
	r.err = err
	r.files = fileSizes(tb, dir)
	return r
}

// checkOnePass runs both routes over copies of the journal in dir and fails
// unless they agree: the same runs and, when both open the journal, the same
// last index, active segment size and file lengths. Where the replay fails
// after Open succeeded, the one pass fails with the same error; where Open
// itself fails, the one pass fails too (it may have replayed some rolled
// segments first). A failed one pass leaves every file as it was. It returns
// the two-pass result.
func checkOnePass(tb testing.TB, dir string, from uint64) routeResult {
	tb.Helper()
	before := fileSizes(tb, dir)
	two := viaOpenThenReplay(tb, copyJournal(tb, dir), from, 0)
	one := viaOpenReplay(tb, copyJournal(tb, dir), from, 0)
	if one.err != nil && !maps.Equal(one.files, before) {
		tb.Fatalf("from %d: OpenReplay failed (%v) and changed the files %v to %v", from, one.err, before, one.files)
	}
	switch {
	case one.err == nil && two.err == nil:
		if one.last != two.last || one.size != two.size || !maps.Equal(one.files, two.files) {
			tb.Fatalf("from %d: one pass left last index %d, segment size %d, files %v; two passes %d, %d, %v",
				from, one.last, one.size, one.files, two.last, two.size, two.files)
		}
	case one.err == nil || two.err == nil:
		tb.Fatalf("from %d: one pass returned %v, two passes %v", from, one.err, two.err)
	case two.size == 0:
		return two // Open failed: no runs to compare
	case one.err.Error() != two.err.Error():
		tb.Fatalf("from %d: one pass failed with %v, two passes with %v", from, one.err, two.err)
	}
	if !slices.Equal(one.runs, two.runs) {
		tb.Fatalf("from %d: one pass delivered %d runs %v, two passes %d runs %v", from, len(one.runs), one.runs, len(two.runs), two.runs)
	}
	return two
}

// replayWindows returns the replay starts worth checking on a journal with
// these segment bases and last index: before it, at and inside the first
// segment, on and inside the final segment, at its last record and past it.
func replayWindows(bases []uint64, last uint64) []uint64 {
	final := bases[len(bases)-1]
	return []uint64{0, 1, bases[0] + 3, final, final + 1, last, last + 1, last + 7}
}

// TestOpenReplayTornFinalRecord: the final record cut at every byte offset,
// or with any one of its bytes flipped, replays and repairs alike.
func TestOpenReplayTornFinalRecord(t *testing.T) {
	for _, journal := range []struct {
		name  string
		write func(t *testing.T, dir string) []uint64
	}{
		{"mark runs", func(t *testing.T, dir string) []uint64 { b, _ := writeRunJournal(t, dir); return b }},
		{"distinct records", func(t *testing.T, dir string) []uint64 { b, _ := writeRolledJournal(t, dir, 20); return b }},
	} {
		t.Run(journal.name, func(t *testing.T) {
			dir := t.TempDir()
			bases := journal.write(t, dir)
			final := bases[len(bases)-1]
			path := filepath.Join(dir, segName(final))
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			offs := recordOffsets(seg)
			lastRec := offs[len(offs)-1]
			last := final + uint64(len(offs)) - 1
			damaged := func(img []byte) {
				if err := os.WriteFile(path, img, 0o644); err != nil {
					t.Fatal(err)
				}
				for _, from := range []uint64{1, final + 1, last} {
					r := checkOnePass(t, dir, from)
					if r.err != nil || r.last != last-1 || r.size != int64(lastRec) {
						t.Fatalf("damaged final record: last index %d, segment size %d, %v; want %d, %d",
							r.last, r.size, r.err, last-1, lastRec)
					}
				}
			}
			for cut := lastRec; cut < len(seg); cut++ {
				damaged(seg[:cut])
			}
			for at := lastRec; at < len(seg); at++ {
				img := bytes.Clone(seg)
				img[at] ^= 0x01
				damaged(img)
			}
		})
	}
}

// TestOpenReplayRunCopyDamaged: a flipped bit inside a run of marks is a
// repaired tail in the last segment and ErrCorrupt in a rolled one, where
// the one pass truncates nothing.
func TestOpenReplayRunCopyDamaged(t *testing.T) {
	for _, dmg := range runDamage {
		for _, rolled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/rolled=%v", dmg.name, rolled), func(t *testing.T) {
				dir := t.TempDir()
				bases, payloads := writeRunJournal(t, dir)
				base := bases[len(bases)-1]
				if rolled {
					base = bases[1]
				}
				path := filepath.Join(dir, segName(base))
				seg, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				off, pos := runCopy(t, seg)
				seg[off+dmg.at] ^= 0x01
				if err := os.WriteFile(path, seg, 0o644); err != nil {
					t.Fatal(err)
				}
				idx := base + uint64(pos)
				for _, from := range replayWindows(bases, uint64(len(payloads))) {
					r := checkOnePass(t, dir, from)
					switch {
					case rolled && from <= idx && !errors.Is(r.err, ErrCorrupt):
						t.Fatalf("from %d: replay over a damaged rolled copy returned %v, want ErrCorrupt", from, r.err)
					case !rolled && (r.err != nil || r.last != idx-1):
						t.Fatalf("from %d: last index %d after repair (%v), want %d", from, r.last, r.err, idx-1)
					}
				}
			})
		}
	}
}

// TestOpenReplayWindows: every replay start, before, inside and past the
// final segment, on an intact journal of rolled segments.
func TestOpenReplayWindows(t *testing.T) {
	for _, journal := range []struct {
		name  string
		write func(t *testing.T, dir string) ([]uint64, [][]byte)
	}{
		{"mark runs", writeRunJournal},
		{"distinct records", func(t *testing.T, dir string) ([]uint64, [][]byte) { return writeRolledJournal(t, dir, 20) }},
	} {
		t.Run(journal.name, func(t *testing.T) {
			dir := t.TempDir()
			bases, payloads := journal.write(t, dir)
			last := uint64(len(payloads))
			froms := replayWindows(bases, last)
			for _, b := range bases[1:] {
				froms = append(froms, b-1, b, b+1)
			}
			for _, from := range froms {
				if r := checkOnePass(t, dir, from); r.err != nil || r.last != last {
					t.Fatalf("from %d: last index %d, %v; want %d", from, r.last, r.err, last)
				}
			}
		})
	}
}

// TestOpenReplayEmpty: an empty directory (with and without a first index)
// and segments that hold only their header.
func TestOpenReplayEmpty(t *testing.T) {
	t.Run("empty directory", func(t *testing.T) {
		for _, first := range []uint64{0, 1, 9} {
			opts := Options{Sync: SyncOff, FirstIndex: first}
			var runs []string
			l, err := OpenReplay(filepath.Join(t.TempDir(), "wal"), opts, 1, recordRuns(&runs, 0))
			if err != nil {
				t.Fatal(err)
			}
			want := max(first, 1) - 1
			if l.LastIndex() != want || l.segSize != headerSize || len(runs) != 0 {
				t.Fatalf("first index %d: last index %d, segment size %d, %d runs; want %d, %d, 0", first, l.LastIndex(), l.segSize, len(runs), want, headerSize)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		r := checkOnePass(t, t.TempDir(), 1)
		if r.err != nil || r.last != 0 || r.size != headerSize {
			t.Fatalf("empty directory: last index %d, segment size %d, %v", r.last, r.size, r.err)
		}
	})
	t.Run("header only", func(t *testing.T) {
		for _, base := range []uint64{1, 7} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(base)), segHeader(base), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, from := range []uint64{0, base, base + 3} {
				if r := checkOnePass(t, dir, from); r.err != nil || r.last != base-1 || r.size != headerSize {
					t.Fatalf("header-only segment %d from %d: last index %d, segment size %d, %v", base, from, r.last, r.size, r.err)
				}
			}
		}
	})
	t.Run("rolled then header only", func(t *testing.T) {
		dir := t.TempDir()
		bases, payloads := writeRolledJournal(t, dir, 20)
		next := uint64(len(payloads)) + 1
		if err := os.WriteFile(filepath.Join(dir, segName(next)), segHeader(next), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, from := range append(replayWindows(bases, next-1), next) {
			if r := checkOnePass(t, dir, from); r.err != nil || r.last != next-1 {
				t.Fatalf("from %d: last index %d, %v; want %d", from, r.last, r.err, next-1)
			}
		}
	})
}

// TestOpenReplayCallbackError: fn failing in the middle of the final segment
// stops the one pass with fn's error, verbatim, after the runs two passes
// deliver up to the same failure — and leaves even a torn tail in place.
func TestOpenReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	bases, _ := writeRolledJournal(t, dir, 20)
	final := bases[len(bases)-1]
	path := filepath.Join(dir, segName(final))
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg = seg[:len(seg)-3] // a torn tail that a successful open would cut
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var total int
	if _, err := OpenReplay(copyJournal(t, dir), Options{Sync: SyncOff}, 1, func(idx uint64, _ []byte, _ uint64) error {
		if total++; idx > final {
			return errStop // the final segment's second run
		}
		return nil
	}); err != errStop {
		t.Fatalf("counting runs: %v", err)
	}
	for _, stopAfter := range []int{1, total - 1, total} {
		one := viaOpenReplay(t, copyJournal(t, dir), 1, stopAfter)
		two := viaOpenThenReplay(t, copyJournal(t, dir), 1, stopAfter)
		if one.err != errStop || two.err != errStop {
			t.Fatalf("stop after %d runs: one pass returned %v, two passes %v; want errStop from both", stopAfter, one.err, two.err)
		}
		if !slices.Equal(one.runs, two.runs) {
			t.Fatalf("stop after %d runs: one pass delivered %v, two passes %v", stopAfter, one.runs, two.runs)
		}
		if !maps.Equal(one.files, fileSizes(t, dir)) {
			t.Fatalf("stop after %d runs: files %v, want %v untouched", stopAfter, one.files, fileSizes(t, dir))
		}
	}
	// The same, checked byte for byte on the journal itself.
	if _, err := OpenReplay(dir, Options{Sync: SyncOff}, 1, recordRuns(new([]string), total)); err != errStop {
		t.Fatalf("OpenReplay returned %v, want errStop", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
		t.Fatalf("the final segment changed under a failed replay (%v)", err)
	}
}
