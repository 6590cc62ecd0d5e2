package obsv

import "testing"

// BenchmarkObsvOverhead measures the primitive costs the hot paths pay:
// the nil fast path (metrics off — must be free and allocation-free), an
// atomic counter add, a histogram observe, and a span window. These are
// the numbers behind DESIGN.md §10's overhead budget;
// TestPrimitivesAllocateNothing holds each to zero allocations.
func BenchmarkObsvOverhead(b *testing.B) {
	b.Run("counter-nil", func(b *testing.B) {
		b.ReportAllocs()
		var r *Registry
		c := r.Counter("off")
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		c := New().Counter("on")
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("hist-observe", func(b *testing.B) {
		b.ReportAllocs()
		h := New().Histogram("h")
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
	b.Run("hist-nil", func(b *testing.B) {
		b.ReportAllocs()
		var r *Registry
		h := r.Histogram("off")
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
	b.Run("span-window", func(b *testing.B) {
		b.ReportAllocs()
		s := New().Span("stage")
		for i := 0; i < b.N; i++ {
			t := s.Begin()
			t.End()
		}
	})
	b.Run("span-nil", func(b *testing.B) {
		b.ReportAllocs()
		var r *Registry
		s := r.Span("off")
		for i := 0; i < b.N; i++ {
			t := s.Begin()
			t.End()
		}
	})
}
