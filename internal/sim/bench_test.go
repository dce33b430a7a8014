package sim

import "testing"

// BenchmarkEngineFanout stresses heap reordering: each op schedules a
// spread of events at staggered times, then drains them.
func BenchmarkEngineFanout(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := e.Now()
		for j := Time(0); j < 16; j++ {
			e.At(now+(j*37)%113, fn)
		}
		e.Run()
	}
}

// BenchmarkResourceAcquire prices the FIFO server fast path.
func BenchmarkResourceAcquire(b *testing.B) {
	r := NewResource(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(Time(i)*10, 5)
	}
}
