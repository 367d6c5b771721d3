package lexgen_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/loggen"
)

// Live ingest parses and scans strings; boot replay parses and scans the
// journal's bytes in place. The fuzzers hold the two forms to the same
// answer on every input.

// FuzzParseLine: ParseLine must never panic, must round-trip every line
// FormatLine can produce, and LineParser.ParseBytes on a fresh parser must
// agree with it on every input — error or not, timestamp, node and message. Every accepted
// timestamp is the one time.Parse(RFC3339Nano) reads from the same field:
// in the canonical shape the fast path decodes, the identical value (==).
func FuzzParseLine(f *testing.F) {
	f.Add("2015-03-14T04:58:57.640Z c0-0c2s0n2 DVS: verify_filesystem: x")
	f.Add("")
	f.Add(" ")
	f.Add("notatime node msg")
	f.Add("2015-03-14T04:58:57.640Z")
	f.Add("2015-03-14T04:58:57.640Z nodeonly")
	f.Add("2015-03-14T05:58:57.64+01:00 c0-0c2s0n2 slow-path timestamp")
	f.Add("2015-02-29T04:58:57.640Z c0-0c2s0n2 no such day")
	f.Add("2016-02-29T23:59:59.999Z c0-0c2s0n2 leap day")
	f.Add("0000-03-01T00:00:00.000Z n year zero")
	f.Add("1969-12-31T23:59:59.999Z n before the epoch")
	f.Add("2015-03-14T04:58:57Z abc def: a shorter timestamp, a space at 24")
	f.Add("2015-03-14T04:58:57.640Z  two spaces")
	f.Fuzz(func(t *testing.T, line string) {
		ts, node, msg, err := lexgen.ParseLine(line)
		var bp lexgen.LineParser
		bts, bnode, bmsg, berr := bp.ParseBytes([]byte(line))
		if (err == nil) != (berr == nil) {
			t.Fatalf("ParseLine(%q) error %v, ParseBytes error %v", line, err, berr)
		}
		if err != nil {
			return
		}
		if !bts.Equal(ts) || bts.Location().String() != ts.Location().String() || string(bnode) != node || string(bmsg) != msg {
			t.Fatalf("ParseLine(%q) = (%v, %q, %q), ParseBytes = (%v, %q, %q)", line, ts, node, msg, bts, bnode, bmsg)
		}
		field := line[:strings.IndexByte(line, ' ')]
		want, werr := time.Parse(time.RFC3339Nano, field)
		if werr != nil || !want.Equal(ts) {
			t.Fatalf("ParseLine(%q) timestamp %v, time.Parse = (%v, %v)", line, ts, want, werr)
		}
		if len(field) == 24 && field[23] == 'Z' && (ts != want || bts != want) {
			t.Fatalf("canonical timestamp %q: ParseLine %#v, ParseBytes %#v, time.Parse %#v", field, ts, bts, want)
		}
		if rest := line[len(field)+1:]; node+" "+msg != rest || strings.IndexByte(rest, ' ') != len(node) {
			t.Fatalf("ParseLine(%q) = (%q, %q), not the fields after the first space", line, node, msg)
		}
		if node == "" {
			t.Fatalf("empty node accepted from %q", line)
		}
		if strings.ContainsAny(node, " ") {
			t.Fatalf("node %q contains spaces", node)
		}
		// Round trip at millisecond precision.
		re := lexgen.FormatLine(ts, node, msg)
		ts2, node2, msg2, err := lexgen.ParseLine(re)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", re, err)
		}
		if node2 != node || msg2 != msg || ts2.UnixMilli() != ts.UnixMilli() {
			t.Fatalf("round trip changed line: %q vs %q", line, re)
		}
	})
}

// FuzzLineParser: one LineParser (and one more for the []byte form) reads a
// whole sequence of lines — the fuzz input split at '\n' — and must return
// ParseLine's exact answer for each, whatever date it cached from the lines
// before: the same timestamp, node, message and error.
func FuzzLineParser(f *testing.F) {
	for _, lines := range [][]string{
		// A cached date, then lines on it whose clock or layout is bad.
		{"2015-03-14T04:58:57.640Z n ok", "2015-03-14T24:58:57.640Z n hour 24", "2015-03-14T04:58:5a.640Z n digit",
			"2015-03-14X04:58:57.640Z n separator", "2015-03-14T04:58:57.640+ n zone", "2015-03-14T04:58:57.640Z n again"},
		// Feb 29 in leap and non-leap years, and a bad date between hits.
		{"2016-02-29T23:59:59.999Z n leap", "2015-02-29T00:00:00.000Z n not leap", "2015-02-29T00:00:01.000Z n still not",
			"2016-02-29T00:00:00.000Z n leap again",
			"2000-02-29T12:00:00.000Z n century leap", "2100-02-29T12:00:00.000Z n century non-leap"},
		// Month and year ends, and the midnight roll-over and back.
		{"2015-04-30T23:59:59.999Z n", "2015-04-31T00:00:00.000Z n no such day", "2015-05-01T00:00:00.000Z n may",
			"2015-12-31T23:59:59.999Z n eve", "2016-01-01T00:00:00.000Z n new year", "2015-12-31T23:59:59.999Z n back"},
		{"2015-03-14T23:59:59.999Z n a", "2015-03-15T00:00:00.000Z n b", "2015-03-14T23:59:59.999Z n c", "1969-12-31T23:59:59.999Z n d", "0000-01-01T00:00:00.000Z n e"},
		// Non-canonical stamps around canonical ones.
		{"2015-03-14T05:58:57.64+01:00 n slow", "2015-03-14T04:58:57.640Z n fast", "2015-03-14T04:58:57Z n no fraction",
			"2015-03-14T04:58:57.6401Z n four digits", "2015-03-14T04:58:57.640Z", "2015-03-14T04:58:57.640Z nodeonly", "2015-03-14T04:58:57.640Z  two spaces"},
		// Carriage returns left by a CRLF stream.
		{"2015-03-14T04:58:57.640Z n msg\r", "2015-03-14T04:58:57.640Z\r n x", "2015-03-14T04:58:57.640Z n\r", "\r", "2015-03-14T04:58:57.640Z n \r"},
		{"", " ", "notatime node msg", "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00T00:00:00.000Z n zero bytes"},
	} {
		f.Add(strings.Join(lines, "\n"))
	}
	f.Fuzz(func(t *testing.T, in string) {
		var p, bp lexgen.LineParser
		for _, line := range strings.Split(in, "\n") {
			ts, node, msg, err := lexgen.ParseLine(line)
			pts, pnode, pmsg, perr := p.Parse(line)
			bts, bnode, bmsg, berr := bp.ParseBytes([]byte(line))
			if fmt.Sprint(perr) != fmt.Sprint(err) || fmt.Sprint(berr) != fmt.Sprint(err) {
				t.Fatalf("line %q: ParseLine error %v, Parse error %v, ParseBytes error %v", line, err, perr, berr)
			}
			if !sameTime(pts, ts) || !sameTime(bts, ts) || pnode != node || string(bnode) != node || pmsg != msg || string(bmsg) != msg {
				t.Fatalf("line %q: ParseLine = (%#v, %q, %q), Parse = (%#v, %q, %q), ParseBytes = (%#v, %q, %q)",
					line, ts, node, msg, pts, pnode, pmsg, bts, bnode, bmsg)
			}
		}
	})
}

// sameTime reports whether a is b: == for a UTC time (the canonical fast
// path's), and otherwise the same instant written the same way, since
// time.Parse gives each offset it reads a zone of its own.
func sameTime(a, b time.Time) bool {
	if b.Location() == time.UTC {
		return a == b
	}
	return a.Equal(b) && a.Format(time.RFC3339Nano) == b.Format(time.RFC3339Nano)
}

// FuzzScan: scanning arbitrary bytes against realistic template sets — the
// paper's Table III and the XC30 inventory, whose templates have interior
// wildcards — must never panic, any reported match must be a template ID
// from the set, and Scan and ScanBytes must agree on phrase and ok.
func FuzzScan(f *testing.F) {
	sets := [][]core.Template{lexgen.TableIIITemplates(), loggen.DialectXC30.Inventory()}
	type scanner struct {
		sc    *lexgen.Scanner
		valid map[core.PhraseID]bool
	}
	var scanners []scanner
	for _, templates := range sets {
		sc, err := lexgen.NewScanner(templates)
		if err != nil {
			f.Fatal(err)
		}
		valid := map[core.PhraseID]bool{}
		for _, tpl := range templates {
			valid[tpl.ID] = true
		}
		scanners = append(scanners, scanner{sc, valid})
	}
	f.Add("DVS: verify_filesystem: x")
	f.Add("pcieport replay timeout")
	f.Add("")
	f.Add(strings.Repeat("L", 4096))
	for _, tpl := range loggen.DialectXC30.Inventory() {
		f.Add(strings.ReplaceAll(tpl.Pattern, "*", "x y"))
	}
	f.Fuzz(func(t *testing.T, msg string) {
		for _, s := range scanners {
			id, ok := s.sc.Scan(msg)
			if ok && !s.valid[id] {
				t.Fatalf("Scan(%q) returned unknown phrase %d", msg, id)
			}
			if bid, bok := s.sc.ScanBytes([]byte(msg)); bid != id || bok != ok {
				t.Fatalf("Scan(%q) = (%d, %v), ScanBytes = (%d, %v)", msg, id, ok, bid, bok)
			}
		}
	})
}
