package predictor

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loggen"
)

// allDialects are the built-in dialects, in the order the golden files list
// them.
var allDialects = []*loggen.Dialect{
	loggen.DialectXC30, loggen.DialectXE6, loggen.DialectXC40, loggen.DialectXC4030,
	loggen.DialectXK, loggen.DialectBGP, loggen.DialectCassandra, loggen.DialectHadoop,
}

// TestRulesGolden pins, on every built-in dialect, factored and with
// DisableFactoring, the rules Compile derives (DumpRules: which subchains
// factoring picks, and their numbering) and the model and rules
// fingerprints to testdata/rules.golden. Factoring breaks count ties on the
// symbol keys' decimal strings, so a change to how those keys are written
// shows here. UPDATE_GOLDEN=1 rewrites the file, only for a deliberate
// change of the rules.
func TestRulesGolden(t *testing.T) {
	var sb strings.Builder
	for _, d := range allDialects {
		for _, disable := range []bool{false, true} {
			fmt.Fprintf(&sb, "== %s DisableFactoring=%v\n", d.Name, disable)
			m, err := Compile(d.Chains(), d.Inventory(), Options{DisableFactoring: disable})
			if err != nil {
				fmt.Fprintf(&sb, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(&sb, "fingerprint %s rules %016x\n", m.FingerprintHex(), m.RulesFingerprint())
			sb.WriteString(m.rules.DumpRules())
		}
	}
	path := filepath.Join("testdata", "rules.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("rules differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
