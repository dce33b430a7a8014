package sim

import "testing"

// BenchmarkEngineScheduleRun is the headline engine microbenchmark: a
// self-sustaining event churn with a bounded horizon, the pattern every
// substrate's timed path reduces to. Reported ns/op is host cost per
// executed event.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := New()
	remaining := b.N
	var step func()
	step = func() {
		if remaining > 0 {
			remaining--
			e.After(100, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(0, step)
	e.Run()
}

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
	e := New()
	r := NewResource(e, "bench", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(Time(i)*10, 5)
	}
}
