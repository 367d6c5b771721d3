package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/recycle"
)

// cutReader serves data in reads whose sizes come from cuts (cycled; a zero
// or oversized cut is clamped), so a test controls exactly where the stream
// is torn.
type cutReader struct {
	data []byte
	cuts []int
	i    int
}

func (r *cutReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(r.cuts) > 0 {
		n = max(1, r.cuts[r.i%len(r.cuts)])
		r.i++
	}
	n = min(n, len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// frame runs readLines over data torn at cuts, with the first prefix bytes
// already in the buffer (as the hijack peel leaves them), and collects every
// emitted line.
func frame(data []byte, cuts []int, prefix, bufSize, maxLine int) ([]string, error) {
	prefix = min(prefix, len(data), bufSize)
	buf := make([]byte, bufSize)
	copy(buf, data[:prefix])
	var got []string
	err := readLines(&cutReader{data: data[prefix:], cuts: cuts}, buf, prefix, maxLine, nil,
		func(lines []string) { got = keep(got, lines) })
	return got, err
}

// keep appends copies of lines to dst: a framed line is a view of the read
// buffer, valid only until emit returns.
func keep(dst, lines []string) []string {
	for _, line := range lines {
		dst = append(dst, strings.Clone(line))
	}
	return dst
}

// scannerLines is the reference: bufio.Scanner with ScanLines over the same
// buffer bounds, non-empty lines only — the loop the framer replaced.
func scannerLines(data []byte, bufSize, maxLine int) ([]string, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, bufSize), maxLine)
	var want []string
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			want = append(want, line)
		}
	}
	return want, sc.Err()
}

func TestReadLinesFraming(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	const bufSize, maxLine = 16, 64
	long := strings.Repeat("x", maxLine+1)
	cases := []struct {
		name, in string
		want     []string
		tooLong  bool
	}{
		{"plain", "a\nbb\nccc\n", []string{"a", "bb", "ccc"}, false},
		{"crlf", "a\r\nbb\r\n", []string{"a", "bb"}, false},
		{"only one CR is stripped", "a\r\r\n", []string{"a\r"}, false},
		{"blank lines skipped", "\n\na\n\r\n\nb\n\n", []string{"a", "b"}, false},
		{"unterminated tail at EOF", "a\nbb", []string{"a", "bb"}, false},
		{"unterminated CR tail at EOF", "a\nbb\r", []string{"a", "bb"}, false},
		{"empty stream", "", nil, false},
		{"line grows the buffer", "a\n" + long[:maxLine-1] + "\nb\n", []string{"a", long[:maxLine-1], "b"}, false},
		{"MaxLineLen+1 ends the connection", "a\n" + long + "\nb\n", []string{"a"}, true},
		{"unterminated over-long tail", "a\n" + long, []string{"a"}, true},
	}
	for _, c := range cases {
		for _, cuts := range [][]int{{1}, {3}, {7, 1, 2}, {1 << 20}} {
			got, err := frame([]byte(c.in), cuts, 0, bufSize, maxLine)
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("%s, cuts %v: lines %q, want %q", c.name, cuts, got, c.want)
			}
			if (err != nil) != c.tooLong || (c.tooLong && !errors.Is(err, errLineTooLong)) {
				t.Errorf("%s, cuts %v: err = %v, want too long = %v", c.name, cuts, err, c.tooLong)
			}
			// The table is itself checked against the loop it describes.
			want, werr := scannerLines([]byte(c.in), bufSize, maxLine)
			if fmt.Sprint(want) != fmt.Sprint(c.want) || (werr != nil) != c.tooLong {
				t.Errorf("%s: bufio.Scanner disagrees with the table: %q, %v", c.name, want, werr)
			}
		}
	}
}

// TestReadLinesDeliversBufferedOnError: like the scanner, a failed read still
// hands on what arrived before it — the timed-out sender's partial last line
// included — and the error comes back.
func TestReadLinesDeliversBufferedOnError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("a\nbb\ncc"), errReader{boom})
	var got []string
	err := readLines(r, make([]byte, 16), 0, 64, nil, func(lines []string) { got = keep(got, lines) })
	if !errors.Is(err, boom) || fmt.Sprint(got) != "[a bb cc]" {
		t.Fatalf("lines %q, err %v", got, err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// FuzzReadLines: arbitrary bytes torn at arbitrary read boundaries — one byte
// at a time included — with an arbitrary part already buffered yield exactly
// bufio.Scanner's non-empty lines, in order, and fail exactly when it does.
func FuzzReadLines(f *testing.F) {
	recycle.PoisonForTest(f.Cleanup)
	f.Add([]byte("2020-01-01T00:00:00.000Z c0-0c0s0n0 msg one\r\nsecond line\n\nthird"), int64(1), 0)
	f.Add([]byte("a\nb\n"), int64(2), 3)
	f.Add([]byte(strings.Repeat("y", 70)+"\nz\n"), int64(3), 5)
	f.Add([]byte("\r\n\r\r\n\n"), int64(4), 1)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, prefix int) {
		const bufSize, maxLine = 16, 64
		rng := rand.New(rand.NewSource(seed))
		cuts := make([]int, 1+rng.Intn(8))
		for i := range cuts {
			cuts[i] = 1 + rng.Intn(1+rng.Intn(40)) // skewed towards tiny reads
		}
		if prefix < 0 {
			prefix = -prefix
		}
		got, err := frame(data, cuts, prefix%(bufSize+1), bufSize, maxLine)
		want, werr := scannerLines(data, bufSize, maxLine)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cuts %v prefix %d: lines %q, scanner %q", cuts, prefix, got, want)
		}
		if (err != nil) != (werr != nil) {
			t.Fatalf("cuts %v prefix %d: err %v, scanner %v", cuts, prefix, err, werr)
		}
	})
}

// TestReadLinesAllocs: framing a chunk allocates nothing, however many lines
// it holds — the lines are views of the reused read buffer. A stream of 128
// chunks costs what one of 8 does: the growth of the lines slice to the
// largest chunk, once per stream.
func TestReadLinesAllocs(t *testing.T) {
	chunk := []byte(strings.Repeat("2020-01-01T00:00:00.000Z c0-0c0s0n0 some benign message body\n", 200))
	buf := make([]byte, readBufSize)
	lines := 0
	emit := func(ls []string) { lines += len(ls) }
	stream := func(chunks int) float64 {
		data := bytes.Repeat(chunk, chunks)
		r := &cutReader{cuts: []int{len(chunk)}}
		return testing.AllocsPerRun(5, func() {
			r.data, r.i = data, 0
			if err := readLines(r, buf, 0, 1<<20, nil, emit); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := stream(8), stream(128)
	if lines == 0 {
		t.Fatal("no lines framed")
	}
	if long != short {
		t.Fatalf("%.0f allocations framing 128 chunks, %.0f framing 8: want none per chunk", long, short)
	}
}

// stubIngestor records per-line submissions and can be flipped to draining.
type stubIngestor struct {
	lines    []string
	draining atomic.Bool
}

func (s *stubIngestor) BeginProduce() bool { return true }
func (s *stubIngestor) EndProduce()        {}
func (s *stubIngestor) Ingest(line string) bool {
	s.lines = append(s.lines, strings.Clone(line))
	return true
}
func (s *stubIngestor) Draining() bool { return s.draining.Load() }

// deadlineConn is a net.Conn that serves a cutReader and counts reads and
// deadline arms.
type deadlineConn struct {
	net.Conn // nil: anything but Read/SetReadDeadline is a test bug
	r        io.Reader
	reads    int
	arms     int
	onRead   func(n int)
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	c.reads++
	if c.onRead != nil {
		c.onRead(c.reads)
	}
	return c.r.Read(p)
}

func (c *deadlineConn) SetReadDeadline(time.Time) error { c.arms++; return nil }

// TestReadLinesArmsDeadlinePerRead: the idle deadline is armed once per
// socket read, not per line, and never once a drain has begun (it would
// extend the drain deadline Shutdown set).
func TestReadLinesArmsDeadlinePerRead(t *testing.T) {
	data := []byte(strings.Repeat("line\n", 100)) // 500 bytes
	ing := &stubIngestor{}
	tcp := NewTCP(Config{MaxLineLen: 1 << 20, Logf: t.Logf}, ing, time.Minute)
	conn := &deadlineConn{r: &cutReader{data: data, cuts: []int{50}}}
	var got int
	if err := tcp.ReadLines(conn, nil, func(lines []string) { got += len(lines) }); err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("framed %d lines, want 100", got)
	}
	if conn.reads != 11 || conn.arms != conn.reads { // ten data reads and the EOF
		t.Fatalf("%d reads, %d deadline arms; want 11 and 11", conn.reads, conn.arms)
	}

	conn = &deadlineConn{r: &cutReader{data: data, cuts: []int{50}}}
	conn.onRead = func(n int) {
		if n == 4 {
			ing.draining.Store(true)
		}
	}
	if err := tcp.ReadLines(conn, nil, func([]string) {}); err != nil {
		t.Fatal(err)
	}
	if conn.reads != 11 || conn.arms != 4 {
		t.Fatalf("draining from read 4: %d reads, %d arms; want 11 and 4", conn.reads, conn.arms)
	}
}

// TestReadLinesHijackPrefix: bytes the hijack peel's reader buffered past the
// first line come first and the reader is left empty.
func TestReadLinesHijackPrefix(t *testing.T) {
	stream := "FIRST\nsecond\nthi"
	rest := "rd\nfourth\n"
	br := bufio.NewReaderSize(strings.NewReader(stream), readBufSize)
	if first, err := readFirstLine(br, 1<<20); err != nil || first != "FIRST" {
		t.Fatalf("first line %q, %v", first, err)
	}
	tcp := NewTCP(Config{MaxLineLen: 1 << 20, Logf: t.Logf}, &stubIngestor{}, time.Minute)
	var got []string
	conn := &deadlineConn{r: strings.NewReader(rest)}
	if err := tcp.ReadLines(conn, br, func(lines []string) { got = keep(got, lines) }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[second third fourth]" || br.Buffered() != 0 {
		t.Fatalf("lines %q, %d bytes left in the peel reader", got, br.Buffered())
	}
}

// TestSubmitFallsBackToPerLineIngest: without the explicit batch wiring every
// line still goes through Ingestor.Ingest — what keeps an Ingestor that wraps
// another to observe Ingest (the benchmark's timing stub) seeing every line.
func TestSubmitFallsBackToPerLineIngest(t *testing.T) {
	ing := &stubIngestor{}
	if n := submit(ing, nil, []string{"a", "b"}); n != 2 || fmt.Sprint(ing.lines) != "[a b]" {
		t.Fatalf("accepted %d, ingested %q", n, ing.lines)
	}
	var batched []string
	n := submit(ing, func(lines []string) int { batched = keep(batched, lines); return 1 }, []string{"c", "d"})
	if n != 1 || fmt.Sprint(batched) != "[c d]" || len(ing.lines) != 2 {
		t.Fatalf("wired: accepted %d, batched %q, per-line %q", n, batched, ing.lines)
	}
}
