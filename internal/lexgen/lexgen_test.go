package lexgen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// tableIIITemplates returns the six phrase templates of Table III.
func tableIIITemplates() []core.Template {
	return []core.Template{
		{ID: 174, Pattern: "[Firmware Bug]: powernow_k8: *", Class: core.Erroneous},
		{ID: 140, Pattern: "DVS: verify_filesystem: *", Class: core.Unknown},
		{ID: 129, Pattern: "DVS: file_node_down: *", Class: core.Unknown},
		{ID: 175, Pattern: "Lustre: * cannot find peer *", Class: core.Unknown},
		{ID: 134, Pattern: "LNet: critical hardware error: *", Class: core.Erroneous},
		{ID: 127, Pattern: "cb_node_unavailable*", Class: core.Failed},
	}
}

func TestScanTableIII(t *testing.T) {
	s, err := NewScanner(tableIIITemplates())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		msg    string
		wantID core.PhraseID
		wantOK bool
	}{
		{"[Firmware Bug]: powernow_k8: No compatible ACPI _PSS objects found.", 174, true},
		{"DVS: verify_filesystem: file system magic value 0x6969 retrieved from server c4-2c0s0n2 for /global/scratch does not match expected value 0x47504653: excluding server", 140, true},
		{"DVS: file_node_down: removing c3-0c1s2n1 from list of available servers for 2 file systems", 129, true},
		{"Lustre: 12345:0:(events.c:543) cannot find peer 10.128.0.5@o2ib", 175, true},
		{"LNet: critical hardware error: MDS detected faulty HCA", 134, true},
		{"cb_node_unavailable: c0-0c2s0n2", 127, true},
		// The paper's second tokenization example: a benign phrase that
		// matches no FC template and is discarded.
		{"pcieport 0000:00:03.0: [12] Replay Timer Timeout", 0, false},
		{"Accepted publickey for root from 10.3.1.1", 0, false},
		{"", 0, false},
	}
	for _, tt := range tests {
		id, ok := s.Scan(tt.msg)
		if ok != tt.wantOK || (ok && id != tt.wantID) {
			t.Errorf("Scan(%.40q) = (%d,%v), want (%d,%v)", tt.msg, id, ok, tt.wantID, tt.wantOK)
		}
	}
}

func TestScanBytesAgreesWithScan(t *testing.T) {
	s, err := NewScanner(tableIIITemplates())
	if err != nil {
		t.Fatal(err)
	}
	msgs := []string{
		"DVS: verify_filesystem: whatever",
		"nothing interesting",
		"cb_node_unavailable: c1-0c0s7n3",
	}
	for _, m := range msgs {
		id1, ok1 := s.Scan(m)
		id2, ok2 := s.ScanBytes([]byte(m))
		if id1 != id2 || ok1 != ok2 {
			t.Errorf("Scan vs ScanBytes diverge on %q: (%d,%v) vs (%d,%v)", m, id1, ok1, id2, ok2)
		}
	}
}

func TestScannerPriority(t *testing.T) {
	// Two templates matching the same message at the same length: the
	// earlier one must win.
	s, err := NewScanner([]core.Template{
		{ID: 1, Pattern: "err: *"},
		{ID: 2, Pattern: "err: *"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := s.Scan("err: boom"); !ok || id != 1 {
		t.Errorf("Scan = (%d,%v), want (1,true)", id, ok)
	}
	// A more specific (longer-matching) later template beats an earlier
	// shorter one: longest match wins over rule order.
	s2, err := NewScanner([]core.Template{
		{ID: 1, Pattern: "mod:"},
		{ID: 2, Pattern: "mod: specific failure *"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := s2.Scan("mod: specific failure on node 7"); !ok || id != 2 {
		t.Errorf("Scan = (%d,%v), want (2,true)", id, ok)
	}
	if id, ok := s2.Scan("mod: other"); !ok || id != 1 {
		t.Errorf("Scan = (%d,%v), want (1,true)", id, ok)
	}
}

func TestNewScannerErrors(t *testing.T) {
	if _, err := NewScanner([]core.Template{{ID: 1, Pattern: ""}}); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestTemplateToPatternQuoting(t *testing.T) {
	// Metacharacters in templates must be treated literally.
	s, err := NewScanner([]core.Template{
		{ID: 7, Pattern: "panic (core dumped) [cpu0] +0x1f?*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := s.Scan("panic (core dumped) [cpu0] +0x1f? at foo.c:12"); !ok || id != 7 {
		t.Errorf("Scan = (%d,%v), want (7,true)", id, ok)
	}
	if _, ok := s.Scan("panic Xcore dumpedY cpu0 +0x1f? at foo.c:12"); ok {
		t.Error("metacharacters were not quoted")
	}
}

func TestParseLine(t *testing.T) {
	ts := time.Date(2015, 3, 14, 4, 58, 57, 640_000_000, time.UTC)
	line := FormatLine(ts, "c0-0c2s0n2", "DVS: verify_filesystem: magic mismatch")
	gotTS, node, msg, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if !gotTS.Equal(ts) {
		t.Errorf("timestamp = %v, want %v", gotTS, ts)
	}
	if node != "c0-0c2s0n2" {
		t.Errorf("node = %q", node)
	}
	if msg != "DVS: verify_filesystem: magic mismatch" {
		t.Errorf("msg = %q", msg)
	}

	for _, bad := range []string{
		"",
		"nospace",
		"2015-03-14T04:58:57.640Z",
		"notatimestamp c0-0c2s0n2 msg",
		"2015-03-14T04:58:57.640Z nodeonly",
	} {
		if _, _, _, err := ParseLine(bad); err == nil {
			t.Errorf("ParseLine(%q) succeeded, want error", bad)
		}
	}
}

// TestParseTimestampCalendarSweep: the canonical fast path returns the
// very value time.Parse(RFC3339Nano) does (==, not just Equal), and rejects
// what it rejects, on every day of the years at both ends of the four-digit
// range and around the epoch and the 1900/2000/2100 century rules, at the
// first and last millisecond of the day.
func TestParseTimestampCalendarSweep(t *testing.T) {
	var years []int
	for y := 0; y <= 4; y++ {
		years = append(years, y, 9995+y)
	}
	for y := 1899; y <= 1901; y++ {
		years = append(years, y, y+69, y+100, y+200)
	}
	for _, y := range years {
		for m := 1; m <= 12; m++ {
			for d := 1; d <= 31; d++ {
				for _, clock := range []string{"00:00:00.000", "23:59:59.999"} {
					s := fmt.Sprintf("%04d-%02d-%02dT%sZ", y, m, d, clock)
					got, err := parseTimestamp(s)
					want, werr := time.Parse(time.RFC3339Nano, s)
					if (err == nil) != (werr == nil) {
						t.Fatalf("parseTimestamp(%q) error %v, time.Parse error %v", s, err, werr)
					}
					if err == nil && got != want {
						t.Fatalf("parseTimestamp(%q) = %#v, time.Parse = %#v", s, got, want)
					}
				}
			}
		}
	}
}

// TestParseClockSweep holds the clock decode to time.Parse on every second
// of a day and on every byte value at each position of the clock, through
// the stateless parse and a LineParser whose date is cached.
func TestParseClockSweep(t *testing.T) {
	var p LineParser
	check := func(stamp string) {
		t.Helper()
		want, werr := time.Parse(time.RFC3339Nano, stamp)
		for _, parse := range []func(string) (time.Time, string, string, error){ParseLine, p.Parse} {
			got, _, _, err := parse(stamp + " node msg")
			if (err == nil) != (werr == nil) || (err == nil && got != want) {
				t.Fatalf("%q: parsed (%v, %v), time.Parse (%v, %v)", stamp, got, err, want, werr)
			}
		}
	}
	for sec := 0; sec < 86400; sec++ {
		check(fmt.Sprintf("2015-03-14T%02d:%02d:%02d.%03dZ", sec/3600, sec/60%60, sec%60, sec%1000))
	}
	const base = "2015-03-14T12:34:56.789Z"
	for i := 11; i < 23; i++ {
		for c := 0; c < 256; c++ {
			b := []byte(base)
			b[i] = byte(c)
			check(string(b))
		}
	}
}

func TestScanLine(t *testing.T) {
	s, err := NewScanner(tableIIITemplates())
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2015, 3, 14, 5, 3, 24, 403_000_000, time.UTC)
	tok, ok, err := s.ScanLine(FormatLine(ts, "c0-0c2s0n2", "cb_node_unavailable: c0-0c2s0n2"))
	if err != nil || !ok {
		t.Fatalf("ScanLine = (%v,%v,%v)", tok, ok, err)
	}
	if tok.Phrase != 127 || tok.Node != "c0-0c2s0n2" || !tok.Time.Equal(ts) {
		t.Errorf("token = %+v", tok)
	}
	// Benign line: no token, no error.
	_, ok, err = s.ScanLine(FormatLine(ts, "c0-0c2s0n2", "systemd: started session"))
	if err != nil || ok {
		t.Errorf("benign ScanLine = (%v,%v)", ok, err)
	}
	// Malformed line: error.
	if _, _, err := s.ScanLine("garbage"); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestFCTemplates(t *testing.T) {
	inv := tableIIITemplates()
	rs, err := core.TranslateFCs([]core.FailureChain{
		{Name: "FC3", Phrases: []core.PhraseID{174, 140, 129, 175, 134, 127}},
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := FCTemplates(append(inv, core.Template{ID: 999, Pattern: "benign: *"}), rs)
	if len(got) != len(inv) {
		t.Fatalf("FCTemplates kept %d templates, want %d", len(got), len(inv))
	}
	for _, tpl := range got {
		if tpl.ID == 999 {
			t.Error("irrelevant template kept")
		}
	}
}

// Property: a message built by instantiating a template's wildcards with
// random wildcard-free text always scans back to some template, and a
// scanner containing only that template returns exactly its ID.
func TestScanInstantiationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fill := func() string {
		n := rng.Intn(10)
		var sb strings.Builder
		const chars = "abcdefghij0123456789-_./:@"
		for i := 0; i < n; i++ {
			sb.WriteByte(chars[rng.Intn(len(chars))])
		}
		return sb.String()
	}
	templates := tableIIITemplates()
	for iter := 0; iter < 200; iter++ {
		tpl := templates[rng.Intn(len(templates))]
		msg := strings.NewReplacer().Replace(tpl.Pattern) // copy
		for strings.Contains(msg, "*") {
			msg = strings.Replace(msg, "*", fill(), 1)
		}
		solo, err := NewScanner([]core.Template{tpl})
		if err != nil {
			t.Fatal(err)
		}
		if id, ok := solo.Scan(msg); !ok || id != tpl.ID {
			t.Fatalf("solo scan of instantiated %q (%q) = (%d,%v)", tpl.Pattern, msg, id, ok)
		}
	}
}

func BenchmarkScanFCMessage(b *testing.B) {
	s, err := NewScanner(tableIIITemplates())
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("DVS: verify_filesystem: file system magic value 0x6969 retrieved from server c4-2c0s0n2 for /global/scratch does not match expected value 0x47504653: excluding server")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScanBytes(msg)
	}
}

func BenchmarkScanBenignMessage(b *testing.B) {
	s, err := NewScanner(tableIIITemplates())
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("pcieport 0000:00:03.0: [12] Replay Timer Timeout")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScanBytes(msg)
	}
}

func TestScanReader(t *testing.T) {
	s, err := NewScanner(tableIIITemplates())
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2015, 3, 14, 5, 0, 0, 0, time.UTC)
	input := FormatLine(ts, "n1", "DVS: verify_filesystem: x") + "\n" +
		FormatLine(ts.Add(time.Second), "n1", "benign chatter") + "\n" +
		FormatLine(ts.Add(2*time.Second), "n2", "cb_node_unavailable: n2") + "\n"
	var got []core.Token
	err = s.ScanReader(strings.NewReader(input), func(tok core.Token) error {
		got = append(got, tok)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Phrase != 140 || got[1].Node != "n2" {
		t.Fatalf("tokens = %+v", got)
	}
	// Callback error propagates.
	sentinel := errSentinel{}
	err = s.ScanReader(strings.NewReader(input), func(core.Token) error { return sentinel })
	if err != sentinel {
		t.Errorf("callback error not propagated: %v", err)
	}
	// Malformed line aborts.
	if err := s.ScanReader(strings.NewReader("junk\n"), func(core.Token) error { return nil }); err == nil {
		t.Error("malformed line accepted")
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }
