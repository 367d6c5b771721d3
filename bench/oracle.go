package main

import (
	"fmt"
	"time"

	"repro/internal/predictor"
)

// predKey identifies one prediction the way a subscriber sees it. The date
// patched into every pass makes MatchedAt unique across passes.
type predKey struct {
	node, chain string
	matchedMs   int64
}

func (k predKey) String() string {
	return fmt.Sprintf("%s/%s@%s", k.node, k.chain, time.UnixMilli(k.matchedMs).UTC().Format(time.RFC3339Nano))
}

// expectation is one oracle prediction: the global index of the line that
// completed the chain, and how many subscribers' copies have arrived.
type expectation struct {
	line int
	seen int
}

// oracle is the expected prediction multiset of a stream, computed by an
// in-process predictor.Predictor over the very lines the daemon is sent.
// Parsing is per node and driven by log time only, so the daemon's shards,
// workers and peers must reproduce it exactly, in any order.
type oracle struct {
	want map[predKey]*expectation

	// Scanner and parser counters of the reference run, for the layer report.
	stats predictor.Stats
}

// dayMs is the log-time distance between two passes of the block.
const dayMs = 24 * 60 * 60 * 1000

// buildOracle runs the reference predictor over the first two passes of the
// stream and extends the result to `total` lines. The extension is exact
// because every pass parses alike (see blockSpan); the second pass is there
// to check that claim on this very stream rather than trust it.
func buildOracle(s *stream, total int) (*oracle, error) {
	p, err := predictor.New(s.model.chains, s.model.templates, predictor.Options{})
	if err != nil {
		return nil, err
	}
	n := s.lines()
	type basePred struct {
		j int // line within the block
		k predKey
	}
	var perPass [2][]basePred
	var perr error
	s.each(0, min(total, 2*n), func(i int, line string) {
		out, err := p.ProcessLine(line)
		if err != nil && perr == nil {
			perr = fmt.Errorf("oracle: line %d: %w", i, err)
		}
		if pr := out.Prediction; pr != nil {
			perPass[i/n] = append(perPass[i/n], basePred{i % n, predKey{pr.Node, pr.ChainName, pr.MatchedAt.UnixMilli()}})
		}
	})
	if perr != nil {
		return nil, perr
	}
	if len(perPass[1]) > len(perPass[0]) || (total >= 2*n && len(perPass[1]) != len(perPass[0])) {
		return nil, fmt.Errorf("oracle: pass 0 yields %d predictions, pass 1 %d: passes do not parse alike", len(perPass[0]), len(perPass[1]))
	}
	for x, second := range perPass[1] {
		second.k.matchedMs -= dayMs
		if perPass[0][x] != second {
			return nil, fmt.Errorf("oracle: pass 1 diverges from pass 0 at prediction %d (%s): passes do not parse alike", x, second.k)
		}
	}
	o := &oracle{want: make(map[predKey]*expectation), stats: p.Stats()}
	for pass := 0; pass*n < total; pass++ {
		for _, b := range perPass[0] {
			if line := pass*n + b.j; line < total {
				k := b.k
				k.matchedMs += int64(pass) * dayMs
				if _, dup := o.want[k]; dup {
					return nil, fmt.Errorf("oracle: stream yields %s twice; keys must be unique", k)
				}
				o.want[k] = &expectation{line: line}
			}
		}
	}
	return o, nil
}

// expectedIn counts oracle predictions triggered by lines [from,to).
func (o *oracle) expectedIn(from, to int) int {
	n := 0
	for _, e := range o.want {
		if e.line >= from && e.line < to {
			n++
		}
	}
	return n
}

// verdict is the outcome of matching received predictions against the
// oracle.
type verdict struct {
	missing, duplicate, spurious int
	examples                     []string
}

func (v verdict) failed() int { return v.missing + v.duplicate + v.spurious }

func (v *verdict) note(format string, args ...any) {
	if len(v.examples) < 5 {
		v.examples = append(v.examples, fmt.Sprintf(format, args...))
	}
}

// observe records one received prediction and returns the line that caused
// it (ok=false for a prediction the oracle does not expect).
func (o *oracle) observe(k predKey, v *verdict) (line int, ok bool) {
	e := o.want[k]
	if e == nil {
		v.spurious++
		v.note("spurious %s", k)
		return 0, false
	}
	e.seen++
	if e.seen > 1 {
		v.duplicate++
		v.note("duplicate %s", k)
		return e.line, false
	}
	return e.line, true
}

// finish counts the expected predictions of lines [from,to) that never
// arrived.
func (o *oracle) finish(from, to int, v *verdict) {
	for k, e := range o.want {
		if e.line >= from && e.line < to && e.seen == 0 {
			v.missing++
			v.note("missing %s (line %d)", k, e.line)
		}
	}
}

// reset forgets what has been seen, so the same oracle can judge the
// recovered replay after a restart.
func (o *oracle) reset() {
	for _, e := range o.want {
		e.seen = 0
	}
}
