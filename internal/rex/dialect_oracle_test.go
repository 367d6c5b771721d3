package rex_test

import (
	"testing"

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
