package vet

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/loggen"
)

// TestRunMatchesSequential: on every built-in dialect, whole and with
// DisableFactoring, and on a model whose templates and chains both fail to
// compile, Run with the grammar and the scanner compiled side by side
// reports exactly what compiling them one after the other does.
func TestRunMatchesSequential(t *testing.T) {
	models := map[string]Model{
		"broken": {
			Chains:    []core.FailureChain{{Name: "a", Phrases: []core.PhraseID{1, 2}}, {Name: "a", Phrases: []core.PhraseID{2, 1}}},
			Templates: []core.Template{{ID: 1, Pattern: "x(", Class: core.Benign}, {ID: 2, Pattern: "y", Class: core.Failed}},
		},
	}
	for _, d := range []*loggen.Dialect{
		loggen.DialectXC30, loggen.DialectXE6, loggen.DialectXC40, loggen.DialectXC4030,
		loggen.DialectXK, loggen.DialectBGP, loggen.DialectCassandra, loggen.DialectHadoop,
	} {
		models[d.Name] = Model{Chains: d.Chains(), Templates: d.Inventory()}
	}
	for name, m := range models {
		for _, cfg := range []Config{{}, {DisableFactoring: true}} {
			got, err := Run(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := newPass(m, cfg)
			p.compileGrammar()
			p.findings = append(p.findings, p.compileScanner()...)
			want := p.analyze(Analyzers())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: Run reports\n%+v\nsequential compile\n%+v", name, cfg, got.Findings, want.Findings)
			}
			if name == "broken" && got.Count(Error) < 2 {
				t.Errorf("broken model drew %d errors, want both compile failures: %+v", got.Count(Error), got.Findings)
			}
		}
	}
}
