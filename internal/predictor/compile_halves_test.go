package predictor

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lexgen"
)

// TestCompileMatchesSequential: on every built-in dialect, factored and
// with DisableFactoring, the model Compile builds equals one built a step at
// a time from the rule chains Compile selected — the rule set and LALR
// tables of TranslateFCs, then the scanner of the inventory templates
// rs.Relevant or a terminal phrase selects — and the scanner's rule phrases,
// taken from the rule chains, are exactly the ones rs.Relevant reports.
func TestCompileMatchesSequential(t *testing.T) {
	for _, d := range allDialects {
		for _, disable := range []bool{false, true} {
			opts := Options{DisableFactoring: disable}
			m, err := Compile(d.Chains(), d.Inventory(), opts)
			if err != nil {
				t.Fatalf("%s DisableFactoring=%v: %v", d.Name, disable, err)
			}
			ruleChains := m.rules.Chains
			rs, err := core.TranslateFCs(ruleChains, core.Options{Timeout: opts.Timeout, DisableFactoring: disable})
			if err != nil {
				t.Fatal(err)
			}
			inRule := map[core.PhraseID]bool{}
			for _, fc := range ruleChains {
				for _, p := range fc.Phrases {
					inRule[p] = true
				}
			}
			var templates []core.Template
			added := map[core.PhraseID]bool{}
			for _, tpl := range d.Inventory() {
				if inRule[tpl.ID] != rs.Relevant(tpl.ID) {
					t.Errorf("%s: phrase %d in a rule chain %v, Relevant %v", d.Name, tpl.ID, inRule[tpl.ID], rs.Relevant(tpl.ID))
				}
				if (rs.Relevant(tpl.ID) || m.terminal[tpl.ID]) && !added[tpl.ID] {
					added[tpl.ID] = true
					templates = append(templates, tpl)
				}
			}
			scanner, err := lexgen.NewScanner(templates)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m.rules, rs) {
				t.Errorf("%s DisableFactoring=%v: rule set or LALR tables differ from a sequential build", d.Name, disable)
			}
			if !reflect.DeepEqual(m.scanner, scanner) {
				t.Errorf("%s DisableFactoring=%v: scanner differs from a sequential build", d.Name, disable)
			}
			if m.fingerprint != modelFingerprint(d.Chains(), d.Inventory(), opts) || m.rulesFingerprint != rulesFingerprint(ruleChains, opts) {
				t.Errorf("%s DisableFactoring=%v: fingerprints differ from a sequential build", d.Name, disable)
			}
		}
	}
}

// TestCompileErrorOrder: Compile reports the first failure in its order —
// translating the chains, then a chain phrase missing from the inventory,
// then the scanner.
func TestCompileErrorOrder(t *testing.T) {
	inv := []core.Template{
		{ID: 1, Pattern: "alpha *", Class: core.Benign},
		{ID: 2, Pattern: "beta *", Class: core.Benign},
		{ID: 3, Pattern: "node down", Class: core.Failed},
		{ID: 4, Pattern: "", Class: core.Benign},
	}
	chain := func(name string, ps ...core.PhraseID) core.FailureChain {
		return core.FailureChain{Name: name, Phrases: ps}
	}
	for _, tc := range []struct {
		name   string
		chains []core.FailureChain
		inv    []core.Template
		want   string
	}{
		{"translate before missing phrase", []core.FailureChain{chain("a", 1, 2, 3), chain("a", 1, 9, 3)}, inv,
			"predictor: translating chains: core: duplicate chain name \"a\""},
		{"chain phrase before scanner", []core.FailureChain{chain("a", 4, 9, 3)}, inv,
			"predictor: chain \"a\" phrase 9 missing from inventory"},
		{"scanner", []core.FailureChain{chain("a", 4, 1, 3)}, inv,
			"predictor: building scanner: lexgen: template 2 (phrase 4) has an empty pattern"},
	} {
		_, err := Compile(tc.chains, tc.inv, Options{})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Compile error %v, want %q", tc.name, err, tc.want)
		}
	}
}
