package sim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
// matrix: with a provable 10x-the-window delivery bound, a set given the
// matrix runs the same event program in a fraction of the barriers a set
// given none pays at the base window, and the elision counter accounts
// for the skipped base windows. The program itself must execute
// identically.
func TestShardSetElidePolicyWidensWindows(t *testing.T) {
	const window = Time(10)
	run := func(bounds [][]Time) (int, uint64, uint64) {
		s := NewShardSet(2, window)
		s.ConfigureLookahead(bounds, 0)
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
	wantRan, baseBarriers, _ := run(nil)
	ran, barriers, elided := run([][]Time{{100, 100}, {100, 100}})
	if ran != wantRan {
		t.Fatalf("with bounds: ran %d events, base window ran %d", ran, wantRan)
	}
	if barriers*5 > baseBarriers {
		t.Errorf("with bounds: %d barriers, want <= the base window's %d / 5", barriers, baseBarriers)
	}
	if elided == 0 {
		t.Error("with bounds: elision counter stayed zero across widened windows")
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
	s.ConfigureLookahead(b, 0)
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
// non-coordinator shard and checks Run returns at the stop time with
// the remaining events intact, then resumes exactly where it left off.
func TestShardSetStopIsDeterministic(t *testing.T) {
	s := NewShardSet(2, 100)
	var ran atomic.Int32
	s.Engine(1).At(10, func() { ran.Add(1); s.StopAt(s.Engine(1), 110) })
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

// TestShardSetStopAtIsShardCountInvariant requests a stop mid-window,
// one base window past the asking event, and checks that 1, 2 and 4
// shards run exactly the events before the stop and leave the same
// events pending.
func TestShardSetStopAtIsShardCountInvariant(t *testing.T) {
	const (
		window = Time(100)
		period = Time(37)
		chains = 4
		stopAt = 1 + 1 + 4*period + window // chain 1's fifth firing, plus a window
	)
	for _, k := range []int{1, 2, 4} {
		s := NewShardSet(k, window)
		var fired [chains][]Time
		for c := 0; c < chains; c++ {
			e := s.Engine(c % k)
			var step func()
			step = func() {
				fired[c] = append(fired[c], e.Now())
				if c == 1 && len(fired[c]) == 5 {
					s.StopAt(e, e.Now()+window)
				}
				e.After(period, step)
			}
			e.At(Time(c+1), step)
		}
		s.Run()
		for c := 0; c < chains; c++ {
			var want []Time
			for at := Time(c + 1); at < stopAt; at += period {
				want = append(want, at)
			}
			if !slices.Equal(fired[c], want) {
				t.Errorf("%d shards: chain %d fired at %v, want %v", k, c, fired[c], want)
			}
		}
		if s.Pending() != chains {
			t.Errorf("%d shards: %d events pending after the stop, want %d", k, s.Pending(), chains)
		}
	}
}

// TestShardSetStopBehindAWindowPanics: a stop closer than another
// shard's window limit cannot be honored, and the coordinator says so.
func TestShardSetStopBehindAWindowPanics(t *testing.T) {
	s := NewShardSet(2, 100)
	s.Engine(0).At(10, func() { s.StopAt(s.Engine(0), 20) })
	s.Engine(1).At(15, func() {})
	defer func() {
		if got, want := fmt.Sprint(recover()), "sim: stop at 20 requested after shard 1 ran to 110"; got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	}()
	s.Run()
}

// TestShardSetSingleShardMatchesEngine runs the same event program
// through a bare engine and a 1-shard set and compares execution traces
// — a one-shard set must keep the plain engine's exact semantics. Each trace
// is read after its Run: the program only schedules, so the events it
// records have not fired when it returns.
func TestShardSetSingleShardMatchesEngine(t *testing.T) {
	program := func(at func(Time, func())) *[]Time {
		var trace []Time
		var rec func(Time)
		rec = func(base Time) {
			trace = append(trace, base)
			if base < 1000 {
				at(base+137, func() { rec(base + 137) })
			}
		}
		at(3, func() { rec(3) })
		return &trace
	}

	e := New()
	wantTrace := program(e.At)
	e.Run()

	s := NewShardSet(1, 120)
	gotTrace := program(s.Engine(0).At)
	s.Run()

	for name, trace := range map[string][]Time{"engine": *wantTrace, "set": *gotTrace} {
		if len(trace) != 9 {
			t.Fatalf("%s fired %d events, want 9", name, len(trace))
		}
		for k, at := range trace {
			if want := 3 + 137*Time(k); at != want {
				t.Fatalf("%s firing %d at %d, want %d", name, k, at, want)
			}
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

// TestShardSetPhases: a 2-shard run reports host time in every phase,
// and the coordinator's timeline — plan, its own window, the wait, the
// drain — fits inside the wall time of the run; a 1-shard run reads no
// clock and reports zero.
func TestShardSetPhases(t *testing.T) {
	for _, k := range []int{1, 2} {
		const window = Time(100)
		s := NewShardSet(k, window)
		s.OnBarrier(func(Time) {})
		for i := 0; i < k; i++ {
			e := s.Engine(i)
			left := 300
			var step func()
			step = func() {
				if left--; left > 0 {
					e.After(2*window, step) // past the limit: one window each
				}
			}
			e.At(Time(i), step)
		}
		start := time.Now()
		s.Run()
		wall := time.Since(start)
		ph := s.Phases()
		if k == 1 {
			if ph.Run != 0 || ph.Plan != 0 || ph.Wait != 0 || ph.Drain != 0 || len(ph.Busy) != 0 {
				t.Errorf("1-shard phases = %+v, want zero", ph)
			}
			continue
		}
		if ph.Run <= 0 || ph.Plan <= 0 || ph.Wait <= 0 || ph.Drain <= 0 {
			t.Errorf("2-shard phases %+v: every phase must be non-zero", ph)
		}
		if len(ph.Busy) != k || ph.Busy[0] <= 0 || ph.Busy[1] <= 0 {
			t.Errorf("2-shard busy times %v, want %d non-zero entries", ph.Busy, k)
		}
		if sum := ph.Plan + ph.Busy[0] + ph.Wait + ph.Drain; sum > ph.Run || ph.Run > wall {
			t.Errorf("phases sum to %v inside a %v Run of %v wall time", sum, ph.Run, wall)
		}
		// The accessor hands out a copy: callers cannot reach the
		// workers' accumulators.
		ph.Busy[0] = 0
		if s.Phases().Busy[0] == 0 {
			t.Error("Phases shares its Busy slice with the set")
		}
	}
}
