package vet

import (
	"fmt"
	"strings"
)

// overlapCheck (V3) detects template patterns whose languages collide, via
// product-DFA intersection over the per-template DFAs (rex.Set.Intersects /
// Covers). The scanner resolves a tie between equal-length matches in favor
// of the earlier template, so:
//
//   - an earlier template covering a later one (L(later) ⊆ L(earlier)) means
//     the later template can never win a match — an error, with a counter
//     check for the reverse direction;
//   - a partial overlap is a warning, carrying the shortest witness message
//     both templates match.
//
// Each finding includes a concrete witness string so the collision can be
// reproduced by feeding the witness to the scanner.
//
// The product search builds four single-pattern DFAs a pair, so it runs only
// for pairs that can share a message: every match of a template starts with
// its leading literal (the text before the first '*'), and two literals that
// differ at a position both have leave neither an intersection nor a cover to
// report.
type overlapCheck struct{}

func init() { Register(overlapCheck{}) }

func (overlapCheck) Name() string { return "overlap" }
func (overlapCheck) Doc() string {
	return "template patterns that shadow or ambiguously overlap each other"
}

func (overlapCheck) Analyze(p *Pass) {
	if p.Scanner == nil {
		return
	}
	ts := p.Model.Templates
	lits := make([]string, len(ts))
	for i, t := range ts {
		lits[i], _, _ = strings.Cut(t.Pattern, "*")
	}
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			if n := min(len(lits[i]), len(lits[j])); lits[i][:n] != lits[j][:n] {
				continue
			}
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
