package predictor

import (
	"testing"

	"repro/internal/loggen"
)

// BenchmarkCompile times Compile on the XC30 and XE6 models: grammar, LALR
// tables and the minimized, packed scanner a boot builds after the vet gate.
//
//	go test -run '^$' -bench BenchmarkCompile ./internal/predictor
func BenchmarkCompile(b *testing.B) {
	for _, d := range []*loggen.Dialect{loggen.DialectXC30, loggen.DialectXE6} {
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(d.Chains(), d.Inventory(), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
