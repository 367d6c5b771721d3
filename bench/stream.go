package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/loggen"
)

// blockSpan is the log time one rendered block covers. It stays below a day
// so that looping the block with the date advanced by one day per pass keeps
// every node's timestamps monotone, and the night-long gap between passes
// exceeds the ΔT timeout: a partial match left at the end of one pass is
// reset by the first token of the next, so every pass parses alike.
const blockSpan = 20 * time.Hour

// dateLen is the width of the "2006-01-02" prefix every line starts with.
const dateLen = 10

// streamSpec is the part of a workload that decides its input lines.
type streamSpec struct {
	nodes        int
	benignPerMin float64 // per node
	failures     int     // injected chains per block
	anomalyRate  float64
	dropProb     float64
}

// stream is one workload's pre-rendered input: a block of newline-terminated
// lines that is sent pass after pass, the date field patched in place so the
// log time keeps advancing.
type stream struct {
	buf   []byte  // the block, every line ending in '\n'
	off   []int32 // off[j] is where line j starts; off[n] == len(buf)
	dates [][]byte
	model loggenModel
}

// loggenModel is what the daemon and the oracle are both built from.
type loggenModel struct {
	chains    []core.FailureChain
	templates []core.Template
}

func (s *stream) lines() int { return len(s.off) - 1 }

// renderStream generates the block for a spec from the seed and sizes the
// date table for `total` lines.
func renderStream(spec streamSpec, seed int64, total int) (*stream, error) {
	d := loggen.DialectXC30
	lg, err := loggen.Generate(loggen.Config{
		Dialect:         d,
		Seed:            seed,
		Duration:        blockSpan,
		Nodes:           spec.nodes,
		BenignPerMinute: spec.benignPerMin,
		Failures:        spec.failures,
		AnomalyRate:     spec.anomalyRate,
		DropProb:        spec.dropProb,
	})
	if err != nil {
		return nil, err
	}
	s := &stream{model: loggenModel{chains: d.Chains(), templates: d.Inventory()}}
	var buf bytes.Buffer
	s.off = make([]int32, 0, len(lg.Events)+1)
	first := lg.Events[0].Time.UTC().Truncate(24 * time.Hour)
	for _, e := range lg.Events {
		if !e.Time.UTC().Truncate(24 * time.Hour).Equal(first) {
			return nil, fmt.Errorf("stream: event at %s leaves the block's day %s", e.Time, first.Format("2006-01-02"))
		}
		s.off = append(s.off, int32(buf.Len()))
		buf.WriteString(e.Line())
		buf.WriteByte('\n')
	}
	s.off = append(s.off, int32(buf.Len()))
	s.buf = buf.Bytes()
	passes := max((total+s.lines()-1)/s.lines(), layerPasses)
	for p := 0; p <= passes; p++ {
		s.dates = append(s.dates, []byte(first.AddDate(0, 0, p).Format("2006-01-02")))
	}
	return s, nil
}

// patch stamps lines [a,b) of the block with the date of pass p and returns
// their bytes, ready to be written to the socket. a and b are block-relative.
func (s *stream) patch(p, a, b int) []byte {
	date := s.dates[p]
	for j := a; j < b; j++ {
		copy(s.buf[s.off[j]:], date)
	}
	return s.buf[s.off[a]:s.off[b]]
}

// span is a run of consecutive lines inside one pass.
type span struct{ pass, a, b int }

// spans splits global lines [from,to) into per-pass runs.
func (s *stream) spans(from, to int) []span {
	n := s.lines()
	var out []span
	for from < to {
		p, a := from/n, from%n
		b := n
		if rest := to - from; rest < n-a {
			b = a + rest
		}
		out = append(out, span{p, a, b})
		from += b - a
	}
	return out
}

// each calls fn with every line of global range [from,to) as a string, in
// order, with its global index. One string is allocated per pass.
func (s *stream) each(from, to int, fn func(i int, line string)) {
	for _, sp := range s.spans(from, to) {
		text := string(s.patch(sp.pass, sp.a, sp.b))
		base := int(s.off[sp.a])
		for j := sp.a; j < sp.b; j++ {
			fn(sp.pass*s.lines()+j, text[int(s.off[j])-base:int(s.off[j+1])-base-1])
		}
	}
}
