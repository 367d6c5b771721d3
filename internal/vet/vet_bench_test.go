package vet

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/loggen"
)

// syntheticTemplates returns n benign templates with distinct leading
// literals and two wildcards each, IDs from first: the shape of a large mined
// inventory appended to a dialect's.
func syntheticTemplates(first core.PhraseID, n int) []core.Template {
	ts := make([]core.Template, n)
	for i := range ts {
		ts[i] = core.Template{
			ID:      first + core.PhraseID(i),
			Pattern: fmt.Sprintf("svc%04d: request * finished with status *", i),
			Class:   core.Benign,
		}
	}
	return ts
}

// BenchmarkVet times the whole gate (Run with the registry's zero Config)
// that every boot without a stored model, every upload and every in-process
// Start pays: the XC30 and XE6 models, and XC30 with 1 000 synthetic
// templates added to its inventory.
//
//	go test -run '^$' -bench BenchmarkVet ./internal/vet
func BenchmarkVet(b *testing.B) {
	xc30 := Model{Chains: loggen.DialectXC30.Chains(), Templates: loggen.DialectXC30.Inventory()}
	xe6 := Model{Chains: loggen.DialectXE6.Chains(), Templates: loggen.DialectXE6.Inventory()}
	large := xc30
	large.Templates = append(append([]core.Template(nil), xc30.Templates...), syntheticTemplates(100000, 1000)...)
	for _, m := range []struct {
		name  string
		model Model
	}{{"xc30", xc30}, {"xe6", xe6}, {"xc30+1000", large}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := Run(m.model, Config{})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Count(Error) > 0 {
					b.Fatalf("%s vets with errors: %+v", m.name, rep.Findings)
				}
			}
		})
	}
}
