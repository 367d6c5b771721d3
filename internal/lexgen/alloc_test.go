package lexgen

import (
	"testing"
	"time"
)

// The //aarohi:hotpath contract, measured: the annotated scanner and parse
// steps must run allocation-free in steady state. aarohilint proves the
// absence of allocating constructs statically; these tests pin the dynamic
// behavior so an escape-analysis regression (a future Go version, an
// innocent-looking refactor) fails CI rather than silently eating 10× of the
// ingest budget.

const allocTestLine = "2015-03-14T04:58:57.640Z c0-0c2s0n2 DVS: verify_filesystem: file system magic value 0x6969 retrieved from server c4-2c0s0n2 for /global/scratch does not match expected value 0x47504653: excluding server"

func allocTestScanner(t *testing.T) *Scanner {
	t.Helper()
	s, err := NewScanner(tableIIITemplates())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScanAllocFree pins Scan and ScanBytes at zero allocations on each
// shortcut of the packed scan: a message that reaches an accelerated state
// (the trailing wildcard, found with IndexByte), one that crosses an interior
// wildcard, and one that dies inside a literal run.
func TestScanAllocFree(t *testing.T) {
	s := allocTestScanner(t)
	_, _, msg, err := ParseLine(allocTestLine)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, msg string
		match     bool
	}{
		{"accelerated", msg, true},
		{"interior wildcard", "Lustre: 0x5a cannot find peer c0-0c0s1n2 on o2ib", true},
		{"dies in a literal run", "DVS: verify_filesXstem: magic value", false},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, ok := s.Scan(c.msg); ok != c.match {
				t.Fatalf("%s: Scan(%q) ok = %v", c.name, c.msg, ok)
			}
		}); allocs > 0 {
			t.Fatalf("%s: Scan allocates %.1f objects per run, want 0", c.name, allocs)
		}
		msgBytes := []byte(c.msg)
		if allocs := testing.AllocsPerRun(200, func() {
			if _, ok := s.ScanBytes(msgBytes); ok != c.match {
				t.Fatalf("%s: ScanBytes(%q) ok = %v", c.name, c.msg, ok)
			}
		}); allocs > 0 {
			t.Fatalf("%s: ScanBytes allocates %.1f objects per run, want 0", c.name, allocs)
		}
	}
}

// TestParseLineAllocFree pins ParseLine and both forms of LineParser at zero
// allocations, the parsers on a date cache hit (the steady state) and on a
// miss.
func TestParseLineAllocFree(t *testing.T) {
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, err := ParseLine(allocTestLine); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("ParseLine allocates %.1f objects per run, want 0", allocs)
	}
	nextDay := "2015-03-15" + allocTestLine[10:]
	var p, bp LineParser
	lines := []string{allocTestLine, allocTestLine, nextDay}
	lineBytes := [][]byte{[]byte(allocTestLine), []byte(allocTestLine), []byte(nextDay)}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, err := p.Parse(lines[i%3]); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := bp.ParseBytes(lineBytes[i%3]); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs > 0 {
		t.Fatalf("LineParser allocates %.1f objects per run, want 0", allocs)
	}
}

// TestParseTimestampMatchesTimeParse pins the fast canonical-layout decoder
// to time.Parse semantics: same accepted instants, same rejections — the
// day-of-month and leap-year edges are exactly where a hand-rolled parser
// would drift.
func TestParseTimestampMatchesTimeParse(t *testing.T) {
	cases := []string{
		"2015-03-14T04:58:57.640Z",
		"2000-02-29T00:00:00.000Z", // leap day, century leap year
		"2016-02-29T23:59:59.999Z", // leap day
		"2015-02-29T00:00:00.000Z", // not a leap year: reject
		"2100-02-29T00:00:00.000Z", // century non-leap: reject
		"2015-04-31T00:00:00.000Z", // April has 30 days: reject
		"2015-12-31T23:59:59.999Z",
		"2015-00-10T00:00:00.000Z",      // month 0: reject
		"2015-13-10T00:00:00.000Z",      // month 13: reject
		"2015-03-00T00:00:00.000Z",      // day 0: reject
		"2015-03-14T24:00:00.000Z",      // hour 24: reject
		"2015-03-14T04:60:00.000Z",      // minute 60: reject
		"2015-03-14T04:58:60.640Z",      // second 60: reject
		"2015-03-14T04:58:5a.640Z",      // non-digit: reject
		"2015-03-14T04:58:57.640+05:30", // offset form: slow path
		"2015-03-14T04:58:57Z",          // no fraction: slow path
		"2015-03-14T04:58:57.6408Z",     // 4-digit fraction: slow path
		"garbage",
	}
	for _, c := range cases {
		got, gotErr := parseTimestamp(c)
		want, wantErr := time.Parse(time.RFC3339Nano, c)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("parseTimestamp(%q) err = %v, time.Parse err = %v", c, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !got.Equal(want) {
			t.Errorf("parseTimestamp(%q) = %v, time.Parse = %v", c, got, want)
		}
	}
}
