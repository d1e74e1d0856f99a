package em

import "testing"

// BenchmarkImplicitStep measures one backward-Euler Korhonen step (101
// nodes).
func BenchmarkImplicitStep(b *testing.B) {
	w := MustNewWire(DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(jPaper, tempPaper, 30)
		if w.Broken() {
			w.Reset()
		}
	}
}

// BenchmarkReducedStep measures the per-segment surrogate used across whole
// power grids.
func BenchmarkReducedStep(b *testing.B) {
	r := mustReduced(b, DefaultReducedParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(jPaper, tempPaper, 3600)
		if r.Broken() {
			r = mustReduced(b, DefaultReducedParams())
		}
	}
}
