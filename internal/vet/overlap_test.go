package vet

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/rex"
)

// referenceOverlap is overlapCheck.Analyze without the leading-literal
// filter: the product search on every pair.
func referenceOverlap(p *Pass) {
	ts := p.Model.Templates
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			subjI := fmt.Sprintf("template %d", ts[i].ID)
			subjJ := fmt.Sprintf("template %d", ts[j].ID)
			if _, covers := p.Scanner.Covers(i, j); covers {
				witness, _ := p.Scanner.Intersects(i, j)
				p.Report(Finding{
					Check: "overlap", Severity: Error, Subject: subjJ,
					Message: fmt.Sprintf(
						"every message matching %q also matches the earlier template %d %q, which wins the tie: this template can never produce a token (witness: %q)",
						ts[j].Pattern, ts[i].ID, ts[i].Pattern, witness),
					Related: []string{subjI},
				})
				continue
			}
			if witness, ok := p.Scanner.Intersects(i, j); ok {
				p.Report(Finding{
					Check: "overlap", Severity: Warning, Subject: subjI,
					Message: fmt.Sprintf(
						"patterns %q and %q (template %d) both match some messages; the earlier template wins ties (witness: %q)",
						ts[i].Pattern, ts[j].Pattern, ts[j].ID, witness),
					Related: []string{subjJ},
				})
			}
		}
	}
}

// TestOverlapPrefilterExact: skipping pairs whose leading literals differ
// changes no finding, no witness and no order, on real inventories and on
// templates built to sit on the filter's edges.
func TestOverlapPrefilterExact(t *testing.T) {
	adversarial := []core.Template{
		{ID: 1, Pattern: "* link failed"},                  // leading wildcard: empty literal
		{ID: 2, Pattern: "LNet: *"},                        //
		{ID: 3, Pattern: "LNet: critical *"},               // literal extends 2's
		{ID: 4, Pattern: "LNet: critical *"},               // identical to 3
		{ID: 5, Pattern: "LNet: critical hardware error"},  // no wildcard at all
		{ID: 6, Pattern: "LNet: critical hardware errors"}, // 5 is a proper prefix, languages disjoint
		{ID: 7, Pattern: "Lustre: * cannot find peer *"},   // parts from LNet at the second byte
		{ID: 8, Pattern: "DVS*"},                           // literal a prefix of 9's
		{ID: 9, Pattern: "DVS: verify_filesystem: *"},      //
		{ID: 10, Pattern: "*"},                             // wildcard only: collides with everything
		{ID: 11, Pattern: "cb_node_unavailable: *"},        //
	}
	sets := map[string][]core.Template{"adversarial": adversarial}
	for _, d := range []*loggen.Dialect{loggen.DialectXC30, loggen.DialectXE6, loggen.DialectBGP, loggen.DialectCassandra} {
		sets[d.Name] = d.Inventory()
	}
	for name, ts := range sets {
		t.Run(name, func(t *testing.T) {
			patterns := make([]string, len(ts))
			for i, tpl := range ts {
				patterns[i] = lexgen.TemplatePattern(tpl.Pattern)
			}
			set, err := rex.CompileSet(patterns)
			if err != nil {
				t.Fatal(err)
			}
			got := &Pass{Model: Model{Templates: ts}, Scanner: set}
			overlapCheck{}.Analyze(got)
			want := &Pass{Model: Model{Templates: ts}, Scanner: set}
			referenceOverlap(want)
			if len(got.findings) != len(want.findings) {
				t.Fatalf("%d findings with the filter, %d without", len(got.findings), len(want.findings))
			}
			for i := range want.findings {
				if !reflect.DeepEqual(got.findings[i], want.findings[i]) {
					t.Errorf("finding %d differs:\n got %+v\nwant %+v", i, got.findings[i], want.findings[i])
				}
			}
			if name == "adversarial" && len(want.findings) < 10 {
				t.Fatalf("adversarial set drew only %d findings; the comparison is near-vacuous", len(want.findings))
			}
		})
	}
}
