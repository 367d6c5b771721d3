package lexgen_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/predictor"
)

// BenchmarkScanDialect times the scanner a daemon builds from a dialect's
// model (its failure-chain templates) over a chains-shaped loggen stream, the
// messages it discards and the chain messages it classifies timed apart. One
// op is one message; ns/B is the time per message byte.
//
//	go test -run '^$' -bench BenchmarkScanDialect ./internal/lexgen
func BenchmarkScanDialect(b *testing.B) {
	for _, d := range []*loggen.Dialect{loggen.DialectXC30, loggen.DialectXE6} {
		p, err := predictor.New(d.Chains(), d.Inventory(), predictor.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sc := p.Scanner()
		lg, err := loggen.Generate(loggen.Config{
			Dialect: d, Seed: 1, Duration: 20 * time.Hour, Nodes: 24,
			BenignPerMinute: 0.5, Failures: 120, AnomalyRate: 0.47, DropProb: 0.1,
		})
		if err != nil {
			b.Fatal(err)
		}
		var discarded, chain []string
		for _, e := range lg.Events {
			if _, ok := sc.Scan(e.Message); ok {
				chain = append(chain, e.Message)
			} else {
				discarded = append(discarded, e.Message)
			}
		}
		for _, set := range []struct {
			name string
			msgs []string
		}{{"discarded", discarded}, {"chain", chain}} {
			b.Run(d.Name+"/"+set.name, func(b *testing.B) { benchScan(b, sc, set.msgs) })
		}
	}
}

// scanSink keeps the compiler from dropping the measured call.
var scanSink core.PhraseID

func benchScan(b *testing.B, sc *lexgen.Scanner, msgs []string) {
	if len(msgs) == 0 {
		b.Skip("no messages of this kind")
	}
	bytes, j := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := msgs[j]
		if j++; j == len(msgs) {
			j = 0
		}
		bytes += len(m)
		scanSink, _ = sc.Scan(m)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bytes), "ns/B")
}

// BenchmarkParseLine times the header parse on an XC30 loggen stream: the
// stateless ParseLine and a LineParser, whose date cache hits on every line
// but the first of each day. One op is one line.
//
//	go test -run '^$' -bench BenchmarkParseLine ./internal/lexgen
func BenchmarkParseLine(b *testing.B) {
	lg, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 1, Duration: 20 * time.Hour, Nodes: 24,
		BenignPerMinute: 0.5, Failures: 120, AnomalyRate: 0.47, DropProb: 0.1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The lines are views of one string, back to back, as the framer hands
	// out the lines of a read.
	var all strings.Builder
	for _, e := range lg.Events {
		all.WriteString(lexgen.FormatLine(e.Time, e.Node, e.Message) + "\n")
	}
	lines := strings.SplitAfter(all.String(), "\n")
	lines = lines[:len(lines)-1]
	for i, l := range lines {
		lines[i] = l[:len(l)-1]
	}
	var p lexgen.LineParser
	for _, c := range []struct {
		name  string
		parse func(string) (time.Time, string, string, error)
	}{{"stateless", lexgen.ParseLine}, {"cached", p.Parse}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parseSink, _, _, _ = c.parse(lines[i%len(lines)])
			}
		})
	}
}

// parseSink keeps the compiler from dropping the measured call.
var parseSink time.Time
