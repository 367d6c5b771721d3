package rex_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/rex"
)

var dialects = []*loggen.Dialect{
	loggen.DialectXC30, loggen.DialectXE6, loggen.DialectXC40, loggen.DialectXC4030,
	loggen.DialectXK, loggen.DialectBGP, loggen.DialectCassandra, loggen.DialectHadoop,
}

func inventoryPatterns(d *loggen.Dialect) []string {
	var patterns []string
	for _, t := range d.Inventory() {
		patterns = append(patterns, lexgen.TemplatePattern(t.Pattern))
	}
	return patterns
}

// TestBuildMatchesOracleOnDialects: the class-indexed subset construction
// yields exactly the 256-column construction's states, accept values and
// reps on every built-in dialect's inventory and on each of its templates
// alone, and records in each state exactly the templates that accept there.
func TestBuildMatchesOracleOnDialects(t *testing.T) {
	for _, d := range dialects {
		if err := rex.CheckBuildOracle(inventoryPatterns(d)); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

// TestMinimizeMatchesOracleOnDialects: per-class refinement yields exactly
// the 256-column refinement's tables on every built-in dialect's scanner
// inventory.
func TestMinimizeMatchesOracleOnDialects(t *testing.T) {
	for _, d := range dialects {
		if err := rex.CheckMinimizeOracle(inventoryPatterns(d)); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

// BenchmarkMinimizeDialect times compile + minimize of the XC30 inventory,
// the scanner a default daemon builds at boot.
func BenchmarkMinimizeDialect(b *testing.B) {
	patterns := inventoryPatterns(loggen.DialectXC30)
	for i := 0; i < b.N; i++ {
		s, err := rex.CompileSet(patterns)
		if err != nil {
			b.Fatal(err)
		}
		s.Minimize()
	}
}

// fcPatterns is the scanner a daemon builds from the dialect's model: the
// inventory templates that appear in a failure chain, in inventory order.
func fcPatterns(d *loggen.Dialect) []string {
	inChain := map[core.PhraseID]bool{}
	for _, fc := range d.Chains() {
		for _, p := range fc.Phrases {
			inChain[p] = true
		}
	}
	var patterns []string
	for _, t := range d.Inventory() {
		if inChain[t.ID] {
			patterns = append(patterns, lexgen.TemplatePattern(t.Pattern))
		}
	}
	return patterns
}

// dialectMessages returns distinct generated messages of the dialect: a short
// loggen run with injected chains and anomalies, plus one instance of every
// inventory template.
func dialectMessages(t *testing.T, d *loggen.Dialect) []string {
	t.Helper()
	lg, err := loggen.Generate(loggen.Config{
		Dialect: d, Seed: 7, Duration: 4 * time.Hour, Nodes: 6, Failures: 6, AnomalyRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var msgs []string
	add := func(m string) {
		if !seen[m] {
			seen[m] = true
			msgs = append(msgs, m)
		}
	}
	for _, e := range lg.Events {
		add(e.Message)
	}
	for _, tpl := range d.Inventory() {
		add(strings.ReplaceAll(tpl.Pattern, "*", "x y"))
	}
	return msgs
}

// TestPackedMatchesDenseOnDialects: on every built-in dialect, over the model's
// failure-chain scanner and the full inventory, the packed scan table returns
// the dense DFA's (id, length) for every prefix of every generated message and
// for the message with '\n' inserted at each position — the cuts that end a
// literal run early and the byte that leaves an accelerated state.
func TestPackedMatchesDenseOnDialects(t *testing.T) {
	for _, d := range dialects {
		msgs := dialectMessages(t, d)
		for _, set := range []struct {
			name     string
			patterns []string
		}{{"fc", fcPatterns(d)}, {"inventory", inventoryPatterns(d)}} {
			check, err := rex.NewPackedOracle(set.patterns)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name, set.name, err)
			}
			for _, m := range msgs {
				for k := 0; k <= len(m); k++ {
					if err := check(m[:k]); err != nil {
						t.Fatalf("%s/%s: %v", d.Name, set.name, err)
					}
					if err := check(m[:k] + "\n" + m[k:]); err != nil {
						t.Fatalf("%s/%s: %v", d.Name, set.name, err)
					}
				}
			}
		}
	}
}
