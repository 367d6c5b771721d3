package vet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/rex"
)

// referenceOverlap is overlapCheck.Analyze by the pairwise reference: for
// every pair, the product searches of rex.Set.Covers and Intersects over the
// two templates' own DFAs.
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

// adversarialTemplates sit on the edges of the one-pass check: a leading
// wildcard, nested and identical patterns, a pattern that is a proper prefix
// of another, a wildcard that collides with everything, and two shortest
// witnesses of equal length.
var adversarialTemplates = []core.Template{
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
	{ID: 12, Pattern: "* *"},                           // meets 13 in "x " and " x": the witness order decides
	{ID: 13, Pattern: "*x*"},                           //
}

// overlapFindings runs the one-pass check and the pairwise reference over ts
// and fails unless they report the same findings, witnesses and order. It
// returns the number of findings.
func overlapFindings(t *testing.T, ts []core.Template) int {
	t.Helper()
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
		t.Fatalf("%d findings in one pass, %d by the pairwise search:\n got %+v\nwant %+v", len(got.findings), len(want.findings), got.findings, want.findings)
	}
	for i := range want.findings {
		if !reflect.DeepEqual(got.findings[i], want.findings[i]) {
			t.Fatalf("finding %d differs:\n got %+v\nwant %+v", i, got.findings[i], want.findings[i])
		}
	}
	return len(want.findings)
}

// TestOverlapPrefilterExact: the one-pass check reports exactly the pairwise
// product search's findings, witnesses and order, on every built-in
// dialect's inventory and on templates built to sit on its edges.
func TestOverlapPrefilterExact(t *testing.T) {
	sets := map[string][]core.Template{"adversarial": adversarialTemplates}
	for _, d := range []*loggen.Dialect{
		loggen.DialectXC30, loggen.DialectXE6, loggen.DialectXC40, loggen.DialectXC4030,
		loggen.DialectXK, loggen.DialectBGP, loggen.DialectCassandra, loggen.DialectHadoop,
	} {
		sets[d.Name] = d.Inventory()
	}
	for name, ts := range sets {
		t.Run(name, func(t *testing.T) {
			if n := overlapFindings(t, ts); name == "adversarial" && n < 10 {
				t.Fatalf("adversarial set drew only %d findings; the comparison is near-vacuous", n)
			}
		})
	}
}

// overlapFragments are the pieces FuzzOverlapOnePass builds templates from:
// the adversarial templates cut at their wildcards and word boundaries.
var overlapFragments = []string{
	"*", "LNet: ", "critical ", "hardware error", "s", "Lustre: ", " cannot find peer ",
	"DVS", ": verify_filesystem: ", "cb_node_unavailable: ", " link failed", "x", " ",
}

// FuzzOverlapOnePass holds the one-pass check to the pairwise product search
// on template sets drawn from overlapFragments. Each input byte picks a
// fragment (b % len) to append to the current template; 0xff starts the next
// one. Sets stay at most 6 templates of at most 6 fragments.
func FuzzOverlapOnePass(f *testing.F) {
	f.Add([]byte{0, 0xff, 1, 0, 0xff, 1, 2, 0})
	f.Add([]byte{1, 2, 3, 0xff, 1, 2, 3, 4, 0xff, 1, 2, 0})
	f.Add([]byte{7, 0, 0xff, 7, 8, 0, 0xff, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ts []core.Template
		var sb strings.Builder
		parts := 0
		flush := func() {
			ts = append(ts, core.Template{ID: core.PhraseID(len(ts) + 1), Pattern: sb.String()})
			sb.Reset()
			parts = 0
		}
		for _, b := range data {
			if b == 0xff {
				if len(ts) == 5 {
					break
				}
				flush()
				continue
			}
			if parts < 6 {
				sb.WriteString(overlapFragments[int(b)%len(overlapFragments)])
				parts++
			}
		}
		flush()
		overlapFindings(t, ts)
	})
}
