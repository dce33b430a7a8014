package sim

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardSetWindowedOrder drives two shards whose events interleave in
// time and checks the set advances in lookahead windows: each shard's
// own events run in time order, and no event executes at or past the
// window limit the barrier last announced.
func TestShardSetWindowedOrder(t *testing.T) {
	const window = Time(100)
	s := NewShardSet(2, window)
	// Events on different shards run concurrently inside a window, so
	// the trace needs a lock; the asserted ordering is only across
	// windows, which the barrier serializes.
	var mu sync.Mutex
	var order []int
	add := func(shard int, at Time, id int) {
		s.Engine(shard).At(at, func() {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		})
	}
	// Shard 0 at 10, 250; shard 1 at 20, 30, 260. Windows: [10,110) runs
	// ids 1,2,3 (both shards), then [250,350) runs 4,5.
	add(0, 10, 1)
	add(1, 20, 2)
	add(1, 30, 3)
	add(0, 250, 4)
	add(1, 260, 5)
	s.Run()

	// Cross-shard ordering inside a window is concurrent by design; only
	// per-shard order and window separation are guaranteed. Events 4 and
	// 5 must come after 1..3.
	pos := map[int]int{}
	for i, id := range order {
		pos[id] = i
	}
	if len(order) != 5 {
		t.Fatalf("ran %d events, want 5", len(order))
	}
	for _, early := range []int{1, 2, 3} {
		for _, late := range []int{4, 5} {
			if pos[early] > pos[late] {
				t.Errorf("event %d (t<110) ran after event %d (t>=250)", early, late)
			}
		}
	}
	if s.Now() != 260 {
		t.Errorf("Now() = %d, want 260", s.Now())
	}
}

// TestShardSetBarrierScheduling checks the barrier hook can schedule
// onto any shard and the events land strictly past the window limit —
// the safety property the cross-shard exchange relies on. It also pins
// the hook's argument: with every queue drained and no held intents,
// the replay horizon is MaxTime (a full drain).
func TestShardSetBarrierScheduling(t *testing.T) {
	const window = Time(50)
	s := NewShardSet(3, window)
	var mu sync.Mutex
	fired := make([]Time, 0, 4)
	injected := false
	s.OnBarrier(func(horizon Time) {
		if injected {
			return
		}
		injected = true
		if horizon != MaxTime {
			t.Errorf("first barrier horizon = %d, want MaxTime (all queues drained)", horizon)
		}
		// Inject into every shard past the first window's limit (5+50) —
		// the earliest a conservative exchange may deliver.
		for i := 0; i < s.Shards(); i++ {
			eng := s.Engine(i)
			eng.AtFrom(5, 56, func() {
				mu.Lock()
				fired = append(fired, eng.Now())
				mu.Unlock()
			})
		}
	})
	s.Engine(0).At(5, func() {})
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("barrier-scheduled events fired %d times, want one per shard (3)", len(fired))
	}
	for _, at := range fired {
		if at != 56 {
			t.Errorf("barrier-scheduled event fired at %d, want 56", at)
		}
	}
}

// TestShardSetElidePolicyWidensWindows pins the point of the lookahead
// matrix: with a provable 10x-the-window delivery bound, elision runs
// the same event program in a fraction of the uniform barriers, and the
// elision counter accounts for the skipped uniform windows. The program
// itself must execute identically.
func TestShardSetElidePolicyWidensWindows(t *testing.T) {
	const window = Time(10)
	run := func(elide bool, bounds [][]Time) (int, uint64, uint64) {
		s := NewShardSet(2, window)
		s.ConfigureLookahead(elide, bounds, 0)
		ran := 0
		var tick func()
		tick = func() {
			ran++
			e := s.Engine(0)
			if e.Now() < 1000 {
				e.At(e.Now()+window, tick)
			}
		}
		s.Engine(0).At(0, tick)
		s.Run()
		return ran, s.Barriers, s.Elided
	}
	b := [][]Time{{100, 100}, {100, 100}}
	wantRan, uniformBarriers, _ := run(false, b)
	ran, barriers, elided := run(true, b)
	if ran != wantRan {
		t.Fatalf("elide: ran %d events, uniform ran %d", ran, wantRan)
	}
	if barriers*5 > uniformBarriers {
		t.Errorf("elide: %d barriers, want <= uniform's %d / 5", barriers, uniformBarriers)
	}
	if elided == 0 {
		t.Error("elide: elision counter stayed zero across widened windows")
	}
}

// TestShardSetElisionHonorsHeldIntents checks the elide policy treats a
// held cross-shard intent as pending work: the shard it targets may not
// run past intent time + bound, and the replay horizon eventually
// exposes the intent for replay.
func TestShardSetElisionHonorsHeldIntents(t *testing.T) {
	const window = Time(10)
	s := NewShardSet(2, window)
	b := [][]Time{{50, 50}, {50, 50}}
	s.ConfigureLookahead(true, b, 0)
	held := Time(500) // intent recorded by shard 0, not yet replayed
	var replayed Time
	s.SetIntentSource(func(shard int) Time {
		if shard == 0 && held > 0 {
			return held
		}
		return MaxTime
	})
	s.OnBarrier(func(horizon Time) {
		if held > 0 && held < horizon {
			// The scheduler promised no pending intent below horizon is
			// held back; replay it as a delivery into shard 1.
			at := held + b[0][1]
			s.Engine(1).AtFrom(held, at, func() { replayed = at })
			held = 0
		}
	})
	s.Engine(0).At(0, func() {})
	s.Run()
	if replayed != 550 {
		t.Fatalf("held intent replayed at %d, want delivery at 550", replayed)
	}
}

// TestShardSetStopIsDeterministic requests a stop from an event on a
// non-coordinator shard and checks Run returns at a window boundary with
// the remaining events intact, then resumes exactly where it left off.
func TestShardSetStopIsDeterministic(t *testing.T) {
	s := NewShardSet(2, 100)
	var ran atomic.Int32
	s.Engine(1).At(10, func() { ran.Add(1); s.Stop() })
	s.Engine(0).At(500, func() { ran.Add(1) })
	s.Run()
	if got := ran.Load(); got != 1 {
		t.Fatalf("after stop: ran %d events, want 1", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("after stop: %d events pending, want 1", s.Pending())
	}
	s.Run()
	if got := ran.Load(); got != 2 {
		t.Fatalf("after resume: ran %d events, want 2", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("after resume: %d events pending, want 0", s.Pending())
	}
}

// TestShardSetSingleShardMatchesEngine runs the same event program
// through a bare engine and a 1-shard set and compares execution traces
// — WrapEngine must keep the plain engine's exact semantics.
func TestShardSetSingleShardMatchesEngine(t *testing.T) {
	program := func(at func(Time, func()) Handle) []Time {
		var trace []Time
		var rec func(Time)
		rec = func(base Time) {
			trace = append(trace, base)
			if base < 1000 {
				at(base+137, func() { rec(base + 137) })
			}
		}
		at(3, func() { rec(3) })
		return trace
	}

	e := New()
	wantTrace := program(e.At)
	e.Run()

	s := WrapEngine(New(), 120)
	gotTrace := program(s.Engine(0).At)
	s.Run()

	if len(wantTrace) != len(gotTrace) {
		t.Fatalf("trace lengths differ: engine %d, set %d", len(wantTrace), len(gotTrace))
	}
	for i := range wantTrace {
		if wantTrace[i] != gotTrace[i] {
			t.Fatalf("trace[%d]: engine %d, set %d", i, wantTrace[i], gotTrace[i])
		}
	}
}

// TestShardSetMetricsAggregate checks the aggregated sim_* families sum
// across shards under the same names a single engine registers.
func TestShardSetMetricsAggregate(t *testing.T) {
	s := NewShardSet(2, 100)
	s.Engine(0).At(1, func() {})
	s.Engine(1).At(2, func() {})
	s.Run()
	snap := s.Metrics().Snapshot()
	for _, fam := range snap.Families {
		if fam.Name == "ncdsm_sim_events_total" {
			if len(fam.Samples) != 1 || fam.Samples[0].Value != 2 {
				t.Fatalf("sim_events_total = %+v, want one sample of 2", fam.Samples)
			}
			return
		}
	}
	t.Fatal("ncdsm_sim_events_total family missing from shard-set registry")
}
