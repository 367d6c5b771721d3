// Package lexgen generates the Aarohi scanner: it compiles a phrase-template
// inventory into a single combined DFA (via internal/rex) that classifies
// each incoming log message in one pass. Messages matching no failure-chain
// template are discarded without tokenization — the paper's Observation 4
// notes that under 47% of test phrases are FC-related, so the scanner is the
// filter that keeps the parser's input small.
//
// Templates use the paper's notation (Table III): literal text with '*'
// wildcards, e.g. "DVS: verify filesystem: *". A template matches a message
// when it matches a prefix of the message body; variable suffixes (hex
// values, node IDs, paths) are never inspected further.
//
// The package also splits raw log lines (LineFormat) into timestamp, node
// and message. ParseLine is the stateless form; a LineParser remembers the
// date of the last canonical timestamp it read, so a stream's lines, which
// share one date for a whole day, validate and convert only their clock.
// Every caller that parses line after line on one goroutine — the daemon's
// edge, the manager's batch builder, boot replay's chunks — owns one.
package lexgen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/rex"
)

// Scanner is a generated tokenizer over a fixed template inventory.
type Scanner struct {
	set *rex.Set
	ids []core.PhraseID
}

// Options configure scanner generation.
type Options struct {
	// SkipMinimization keeps the raw subset-construction DFA instead of the
	// minimized one — for the table-size ablation only.
	SkipMinimization bool
	// SkipPacking keeps the automaton's rows, one target per input class,
	// instead of the packed scan table (merged classes, literal runs,
	// accelerated wildcards) — for the table-size ablation only.
	SkipPacking bool
}

// NewScanner compiles the templates into one prioritized, minimized DFA.
// Earlier templates win ties (flex rule-order semantics). Templates with
// empty patterns are rejected.
func NewScanner(templates []core.Template) (*Scanner, error) {
	return NewScannerOpts(templates, Options{})
}

// NewScannerOpts is NewScanner with explicit options.
func NewScannerOpts(templates []core.Template, opts Options) (*Scanner, error) {
	patterns := make([]string, len(templates))
	ids := make([]core.PhraseID, len(templates))
	for i, t := range templates {
		if t.Pattern == "" {
			return nil, fmt.Errorf("lexgen: template %d (phrase %d) has an empty pattern", i, t.ID)
		}
		patterns[i] = TemplatePattern(t.Pattern)
		ids[i] = t.ID
	}
	set, err := rex.CompileSet(patterns)
	if err != nil {
		return nil, fmt.Errorf("lexgen: compiling templates: %w", err)
	}
	if !opts.SkipMinimization {
		set.Minimize()
	}
	if !opts.SkipPacking {
		set.Pack()
	}
	return &Scanner{set: set, ids: ids}, nil
}

// TemplatePattern converts a '*' wildcard template into a rex pattern:
// literal segments are quoted, '*' becomes '.*'. It is exported so analysis
// tools (internal/vet) can rebuild per-template DFAs the same way the
// scanner does.
func TemplatePattern(template string) string {
	parts := strings.Split(template, "*")
	for i, p := range parts {
		parts[i] = rex.QuoteMeta(p)
	}
	return strings.Join(parts, ".*")
}

// Scan classifies one log message body. It returns the phrase ID of the
// matching template and true, or false when the message matches no template
// (a benign message, discarded).
//
//aarohi:hotpath
func (s *Scanner) Scan(msg string) (core.PhraseID, bool) {
	id, n := s.set.MatchString(msg)
	if id < 0 || n == 0 {
		return 0, false
	}
	return s.ids[id], true
}

// ScanBytes is Scan over a byte slice, avoiding a copy for streaming use.
//
//aarohi:hotpath
func (s *Scanner) ScanBytes(msg []byte) (core.PhraseID, bool) {
	id, n := s.set.Match(msg)
	if id < 0 || n == 0 {
		return 0, false
	}
	return s.ids[id], true
}

// ScanLine parses a raw log line and classifies its message. It returns the
// token and ok=true when the message matches a template; parse errors on the
// line itself are returned separately.
func (s *Scanner) ScanLine(line string) (tok core.Token, ok bool, err error) {
	ts, node, msg, err := ParseLine(line)
	if err != nil {
		return core.Token{}, false, err
	}
	id, matched := s.Scan(msg)
	if !matched {
		return core.Token{}, false, nil
	}
	return core.Token{Phrase: id, Time: ts, Node: node}, true, nil
}

// NumTemplates returns the number of compiled templates.
func (s *Scanner) NumTemplates() int { return s.set.Size() }

// NumStates reports the combined DFA size, for diagnostics and ablations.
func (s *Scanner) NumStates() int { return s.set.NumStates() }

// TableBytes reports the scan-table footprint: the packed table (rows,
// literal runs and the byte-class map), or the automaton's class-width rows
// when SkipPacking kept them.
func (s *Scanner) TableBytes() int { return s.set.TableBytes() }

// NumClasses reports the input equivalence classes (0 when unpacked).
func (s *Scanner) NumClasses() int { return s.set.NumClasses() }

// ScanReader streams raw log lines from r, calling fn for every token the
// scanner emits. Benign lines are discarded silently; malformed lines abort
// with an error (wrap r to pre-filter if the source is lossy). fn returning
// an error stops the stream.
func (s *Scanner) ScanReader(r io.Reader, fn func(core.Token) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		tok, ok, err := s.ScanLine(sc.Text())
		if err != nil {
			return fmt.Errorf("lexgen: line %d: %w", lineNo, err)
		}
		if !ok {
			continue
		}
		if err := fn(tok); err != nil {
			return err
		}
	}
	return sc.Err()
}

// FCTemplates filters an inventory down to the templates that participate in
// the rule set's failure chains — the only ones the online scanner needs.
func FCTemplates(inventory []core.Template, rs *core.RuleSet) []core.Template {
	var out []core.Template
	for _, t := range inventory {
		if rs.Relevant(t.ID) {
			out = append(out, t)
		}
	}
	return out
}

// LineFormat documents the raw log line layout produced by the synthetic
// generator and accepted by ParseLine:
//
//	2015-03-14T04:58:57.640Z c0-0c2s0n2 message body ...
//
// i.e. an RFC 3339 timestamp with milliseconds, one space, the node ID (no
// spaces), one space, and the free-form message body.
const LineFormat = "2006-01-02T15:04:05.000Z07:00"

// ParseLine splits a raw log line into timestamp, node ID and message body.
// It is the stateless form of LineParser.Parse: each call starts with an
// empty date cache.
//
//aarohi:hotpath
func ParseLine(line string) (ts time.Time, node, msg string, err error) {
	var p LineParser
	return p.Parse(line)
}

// LineParser is ParseLine with a one-entry date cache: it keeps the date
// (YYYY-MM-DD) of the last canonical timestamp it decoded, with that date's
// time at midnight, so a line stamped on the same day validates and converts
// only its clock (hh:mm:ss.mmm). A log stream changes date once a day, so the
// calendar arithmetic and the date's five digit pairs drop out of nearly
// every line. The result is exactly ParseLine's for every input: the cache
// only holds a date that validated, a hit is a byte-for-byte match with it
// (so the same date would decode to the same midnight), and the clock and
// everything after the timestamp take the uncached path. The zero value is
// ready to use. A LineParser is not safe for concurrent use: give each
// goroutine, or each unit of work that one goroutine holds at a time, its
// own.
type LineParser struct {
	// lo and hi are the cached date's bytes 0-7 and 8-9, little-endian, so a
	// hit is two integer compares; ok is false until a date is cached.
	lo       uint64
	hi       uint16
	ok       bool
	midnight int64 // the cached date's midnight UTC, in Unix seconds
}

// Parse is ParseLine through p's date cache.
//
//aarohi:hotpath
func (p *LineParser) Parse(line string) (ts time.Time, node, msg string, err error) {
	sp1 := canonicalLen
	ts, ok := canonicalField(p, line)
	if !ok {
		if sp1 = strings.IndexByte(line, ' '); sp1 < 0 {
			return time.Time{}, "", "", errNoTimestamp(line)
		}
		if ts, err = parseTimestamp(line[:sp1]); err != nil {
			return time.Time{}, "", "", errBadTimestamp(err)
		}
	}
	rest := line[sp1+1:]
	sp2 := strings.IndexByte(rest, ' ')
	if sp2 <= 0 {
		return time.Time{}, "", "", errNoNode(line)
	}
	return ts, rest[:sp2], rest[sp2+1:], nil
}

// ParseBytes is Parse over a byte slice: node and msg are subslices of line
// (no copies), valid only as long as the caller keeps line alive — the
// WAL-replay path parses, consumes, and drops them before reusing the
// buffer.
//
//aarohi:hotpath
func (p *LineParser) ParseBytes(line []byte) (ts time.Time, node, msg []byte, err error) {
	sp1 := canonicalLen
	ts, ok := canonicalField(p, line)
	if !ok {
		if sp1 = bytes.IndexByte(line, ' '); sp1 < 0 {
			return time.Time{}, nil, nil, errNoTimestamp(line)
		}
		if ts, err = parseTimestamp(line[:sp1]); err != nil {
			return time.Time{}, nil, nil, errBadTimestamp(err)
		}
	}
	rest := line[sp1+1:]
	sp2 := bytes.IndexByte(rest, ' ')
	if sp2 <= 0 {
		return time.Time{}, nil, nil, errNoNode(line)
	}
	return ts, rest[:sp2], rest[sp2+1:], nil
}

// canonicalLen is the length of the canonical timestamp FormatLine writes.
const canonicalLen = len("2015-03-14T04:58:57.640Z")

// canonicalField reports whether line starts with a canonical timestamp and a
// space, and decodes it through p's date cache. A canonical timestamp holds
// no space, so its field is then exactly the one a search for the first
// space would find — the search is skipped, not changed.
//
//aarohi:hotpath
func canonicalField[T ~string | ~[]byte](p *LineParser, line T) (time.Time, bool) {
	if len(line) <= canonicalLen || line[canonicalLen] != ' ' {
		return time.Time{}, false
	}
	return decodeCanonical(p, line[:canonicalLen])
}

// decodeCanonical is parseCanonical through p's date cache, for an s of
// canonicalLen bytes: a date that matches the cached one byte for byte is
// not decoded again, and one that does not validate leaves the cache as it
// was. It counts days with civil-calendar arithmetic instead of time.Date,
// whose month and day normalization the range checks have already made
// unnecessary.
//
//aarohi:hotpath
func decodeCanonical[T ~string | ~[]byte](p *LineParser, s T) (time.Time, bool) {
	if lo, hi := le64(s), le16(s[8:]); !p.ok || lo != p.lo || hi != p.hi {
		if s[4] != '-' || s[7] != '-' {
			return time.Time{}, false
		}
		year, ok0 := atoi4(s, 0)
		month, ok1 := atoi2(s, 5)
		day, ok2 := atoi2(s, 8)
		if !ok0 || !ok1 || !ok2 || month < 1 || month > 12 || day < 1 || day > daysIn(year, month) {
			return time.Time{}, false
		}
		p.lo, p.hi, p.ok, p.midnight = lo, hi, true, daysFromCivil(year, month, day)*86400
	}
	if s[10] != 'T' || s[13] != ':' || s[16] != ':' || s[19] != '.' || s[23] != 'Z' {
		return time.Time{}, false
	}
	hour, ok0 := atoi2(s, 11)
	min, ok1 := atoi2(s, 14)
	sec, ok2 := atoi2(s, 17)
	ms, ok3 := atoi3(s, 20)
	if !ok0 || !ok1 || !ok2 || !ok3 || hour >= 24 || min >= 60 || sec >= 60 {
		return time.Time{}, false
	}
	return time.Unix(p.midnight+int64(hour*3600+min*60+sec), int64(ms)*1e6).UTC(), true
}

// le64 and le16 read s's first 8 and 2 bytes as little-endian words (the
// compiler merges the byte loads into one).
func le64[T ~string | ~[]byte](s T) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le16[T ~string | ~[]byte](s T) uint16 {
	_ = s[1]
	return uint16(s[0]) | uint16(s[1])<<8
}

// parseTimestamp decodes a timestamp field: the canonical layout through
// parseCanonical, anything else (other offsets, other fraction widths)
// through time.Parse.
//
//aarohi:hotpath
func parseTimestamp[T ~string | ~[]byte](s T) (time.Time, error) {
	if ts, ok := parseCanonical(s); ok {
		return ts, nil
	}
	return parseTimestampSlow(s)
}

// parseCanonical decodes the canonical UTC layout FormatLine produces
// (2015-03-14T04:58:57.640Z — fixed width, millisecond precision, 'Z') with
// straight digit arithmetic. It accepts exactly the strings of this shape
// that time.Parse(RFC3339Nano) accepts, including the day-of-month range
// check, returns a Time == to the one time.Parse returns (time.Unix(...).UTC()
// and time.Date(..., time.UTC) build the same value), and allocates nothing.
//
//aarohi:hotpath
func parseCanonical[T ~string | ~[]byte](s T) (time.Time, bool) {
	if len(s) != canonicalLen {
		return time.Time{}, false
	}
	var p LineParser
	return decodeCanonical(&p, s)
}

// parseTimestampSlow is the cold fallback; the string conversion and
// time.Parse's internals may allocate, which is fine off the fast path.
func parseTimestampSlow[T ~string | ~[]byte](s T) (time.Time, error) {
	return time.Parse(time.RFC3339Nano, string(s))
}

// atoi2/atoi3/atoi4 parse fixed-width ASCII decimal runs starting at i; the
// caller guarantees the indices are in bounds.
func atoi2[T ~string | ~[]byte](s T, i int) (int, bool) {
	c0, c1 := s[i]-'0', s[i+1]-'0'
	return int(c0)*10 + int(c1), c0 <= 9 && c1 <= 9
}

func atoi3[T ~string | ~[]byte](s T, i int) (int, bool) {
	hi, ok0 := atoi2(s, i)
	c2 := s[i+2] - '0'
	return hi*10 + int(c2), ok0 && c2 <= 9
}

func atoi4[T ~string | ~[]byte](s T, i int) (int, bool) {
	hi, ok0 := atoi2(s, i)
	lo, ok1 := atoi2(s, i+2)
	return hi*100 + lo, ok0 && ok1
}

// daysFromCivil is the number of days from 1970-01-01 to year-month-day in
// the proleptic Gregorian calendar (Howard Hinnant's days_from_civil), for
// years 0 through 9999 and a valid month and day. The year is counted from
// March, so a leap day is the last day of its year, and shifted by one
// 400-year era (146097 days) so that every operand is unsigned: unsigned
// division by a constant is a multiply and a shift.
func daysFromCivil(year, month, day int) int64 {
	y := uint(year) + 400
	if month <= 2 {
		y--
	}
	era := y / 400
	yoe := y - era*400                                                           // [0, 399]
	doe := yoe*365 + yoe/4 - yoe/100 + uint(marchDays[month&15]) + uint(day) - 1 // [0, 146096]
	return int64(era*146097+doe) - 719468 - 146097
}

// marchDays[m] is the number of days from March 1 to the first of month m
// in a year counted from March.
var marchDays = [16]uint16{0, 306, 337, 0, 31, 61, 92, 122, 153, 184, 214, 245, 275}

// daysIn mirrors time.Parse's day-of-month validation.
func daysIn(year, month int) int {
	switch month {
	case 4, 6, 9, 11:
		return 30
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	default:
		return 31
	}
}

// Cold error constructors keep fmt (and its interface boxing) out of the
// annotated parse functions.
func errNoTimestamp[T ~string | ~[]byte](line T) error {
	return fmt.Errorf("lexgen: malformed line (no timestamp): %q", truncate(string(line)))
}

func errBadTimestamp(err error) error {
	return fmt.Errorf("lexgen: bad timestamp: %w", err)
}

func errNoNode[T ~string | ~[]byte](line T) error {
	return fmt.Errorf("lexgen: malformed line (no node): %q", truncate(string(line)))
}

// FormatLine renders a log line in the canonical layout.
func FormatLine(ts time.Time, node, msg string) string {
	return ts.UTC().Format(LineFormat) + " " + node + " " + msg
}

func truncate(s string) string {
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}
