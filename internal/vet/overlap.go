package vet

import "fmt"

// overlapCheck (V3) detects template patterns whose languages collide, in one
// walk of the combined template DFA (rex.Set.Overlaps). The scanner resolves
// a tie between equal-length matches in favor of the earlier template, so:
//
//   - an earlier template covering a later one (L(later) ⊆ L(earlier)) means
//     the later template can never win a match — an error;
//   - a partial overlap is a warning, carrying the shortest witness message
//     both templates match.
//
// Each finding includes a concrete witness string so the collision can be
// reproduced by feeding the witness to the scanner.
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
	for _, o := range p.Scanner.Overlaps() {
		ti, tj := ts[o.I], ts[o.J]
		subjI := fmt.Sprintf("template %d", ti.ID)
		subjJ := fmt.Sprintf("template %d", tj.ID)
		if o.Covers {
			p.Report(Finding{
				Check: "overlap", Severity: Error, Subject: subjJ,
				Message: fmt.Sprintf(
					"every message matching %q also matches the earlier template %d %q, which wins the tie: this template can never produce a token (witness: %q)",
					tj.Pattern, ti.ID, ti.Pattern, o.Witness),
				Related: []string{subjI},
			})
			continue
		}
		p.Report(Finding{
			Check: "overlap", Severity: Warning, Subject: subjI,
			Message: fmt.Sprintf(
				"patterns %q and %q (template %d) both match some messages; the earlier template wins ties (witness: %q)",
				ti.Pattern, tj.Pattern, tj.ID, o.Witness),
			Related: []string{subjJ},
		})
	}
}
