package rex_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/rex"
)

// TestTablesGolden pins, on every built-in dialect, the dense automaton of
// the whole inventory (what vet builds) and the minimized dense and packed
// tables of the model scanner (what the per-line scan runs) to digests in
// testdata/tables.golden. A change to how automata are built must leave
// every one of them byte for byte as it was; UPDATE_TABLE_DIGESTS=1 rewrites
// the file, only for a deliberate change of the tables.
func TestTablesGolden(t *testing.T) {
	var sb strings.Builder
	for _, d := range dialects {
		inv, err := rex.CompileSet(inventoryPatterns(d))
		if err != nil {
			t.Fatal(err)
		}
		invDense, _ := rex.TableDigests(inv)

		model, err := rex.CompileSet(fcPatterns(d))
		if err != nil {
			t.Fatal(err)
		}
		model.Minimize()
		model.Pack()
		// fcPatterns must be the scanner predictor.Compile builds.
		p, err := predictor.New(d.Chains(), d.Inventory(), predictor.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sc := p.Scanner(); sc.NumTemplates() != model.Size() || sc.NumStates() != model.NumStates() || sc.TableBytes() != model.TableBytes() {
			t.Fatalf("%s: fcPatterns builds %d templates, %d states, %d table bytes; the model scanner %d, %d, %d",
				d.Name, model.Size(), model.NumStates(), model.TableBytes(), sc.NumTemplates(), sc.NumStates(), sc.TableBytes())
		}
		modelDense, modelPacked := rex.TableDigests(model)
		fmt.Fprintf(&sb, "%s inventory-dense %s\n", d.Name, invDense)
		fmt.Fprintf(&sb, "%s model-dense %s\n", d.Name, modelDense)
		fmt.Fprintf(&sb, "%s model-packed %s\n", d.Name, modelPacked)
	}
	path := filepath.Join("testdata", "tables.golden")
	if os.Getenv("UPDATE_TABLE_DIGESTS") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("table digests differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
