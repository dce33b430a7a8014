package sim

import "testing"

// The zero-allocation contract of the engine hot path: schedule + run
// must not allocate in steady state, so the heap's reuse of its backing
// array cannot silently rot. The closures under test are hoisted so only
// the engine's own cost is measured (callers that build a fresh
// capturing closure per event pay for that closure themselves; the hot
// paths in rmc/cluster/cpu pool theirs).
func TestScheduleRunSteadyStateAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the heap past its steady-state size.
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	e.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		e.After(10, fn)
		e.After(20, fn)
		e.After(5, fn)
		e.Run()
	}); avg != 0 {
		t.Errorf("schedule/run steady state allocates %.2f/op, want 0", avg)
	}
}

// Pending is the queue length: scheduling adds to it, firing drains it,
// and a firing event has already left the queue when it runs.
func TestPendingCounter(t *testing.T) {
	e := New()
	fn := func() {}
	e.After(10, fn)
	e.After(20, fn)
	e.After(30, fn)
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after run = %d, want 0", got)
	}
	inside := -1
	e.After(10, func() {
		e.After(5, fn)
		inside = e.Pending()
	})
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	e.Run()
	if inside != 1 {
		t.Errorf("Pending inside a firing event that scheduled one more = %d, want 1", inside)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after second run = %d, want 0", got)
	}
}
