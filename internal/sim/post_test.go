package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/splitmix"
)

// postIntent is one cross-engine send of the posting-order program: sent
// by engine src at t as its seq-th send, delivered to engine dst at at.
type postIntent struct {
	t, at    Time
	src, dst int
	seq      int
}

// postRun is what one run of the posting-order program leaves behind:
// each engine's (time, event) firing sequence, the set's metrics
// snapshot after the first Run (stopped) and after the resumed one, and
// every engine's executed-event count.
type postRun struct {
	fired      [][]firing
	stopped    string
	final      string
	processed  []uint64
	stoppedAt  Time
	leftAtStop int
	postsAfter [2]int
}

// runPostProgram runs a random event program on k engines. Events
// schedule same-engine events at random delays (zero included, so
// same-time ties are common; a third far ahead, so a queue is often
// sparse; none on an odd engine, whose queue holds only what was
// posted to it) and send to random engines; the barrier
// hook replays every send recorded in the window, in (time, source,
// sequence) order, as a delivery at least one base window after its
// send — through Post when post is set, through AtFrom at the barrier
// otherwise. One event stops the run one window ahead; between the two
// Run calls every engine gets an At, which ties with queued events.
func runPostProgram(k int, seed uint64, post bool) postRun {
	const (
		window = Time(100)
		budget = 120 // events per engine that still spawn work
		stopOn = 40  // the stopping engine's firing that asks for the stop
	)
	s := NewShardSet(k, window)
	stopper := (k - 1) &^ 1 // the last even engine: one with work of its own
	run := postRun{fired: make([][]firing, k), processed: make([]uint64, k)}
	// Each engine's state is touched only by its own events (and by
	// the barrier hook, with every engine parked), so the program is a
	// pure function of the per-engine event order.
	rngs := make([]splitmix.Stream, k)
	counts := make([]int, k)
	sends := make([][]postIntent, k)
	seqs := make([]int, k)
	stopped := false
	var act func(i, id int)
	act = func(i, id int) {
		e, rng := s.Engine(i), &rngs[i]
		run.fired[i] = append(run.fired[i], firing{id: id, at: e.Now()})
		counts[i]++
		if i == stopper && counts[i] == stopOn && !stopped {
			stopped = true
			s.StopAt(e, e.Now()+window)
		}
		if counts[i] > budget {
			return
		}
		// An odd engine schedules nothing of its own: its queue stays
		// empty between barriers, so its posts are all its pending work.
		for n := (1 + rng.Next()%2) * uint64(1-i%2); n > 0; n-- {
			child := i*1_000_000 + counts[i]*4 + int(n)
			d := Time(rng.Next()%4) * window / 2
			if rng.Next()%3 == 0 {
				// A far event: an engine's queue head often lies past a
				// delivery posted to it, so a window planned from the
				// head alone would run past that delivery's own sends.
				d += 6 * window
			}
			e.After(d, func() { act(i, child) })
		}
		if rng.Next()%2 == 0 {
			seqs[i]++
			sends[i] = append(sends[i], postIntent{
				t: e.Now(), at: e.Now() + window + Time(rng.Next()%3)*window/2,
				src: i, dst: int(rng.Next() % uint64(k)), seq: seqs[i],
			})
		}
	}
	var replay []postIntent
	s.OnBarrier(func(Time) {
		replay = replay[:0]
		for i := range sends {
			replay = append(replay, sends[i]...)
			sends[i] = sends[i][:0]
		}
		slices.SortFunc(replay, func(a, b postIntent) int {
			if a.t != b.t {
				return int(a.t - b.t)
			}
			if a.src != b.src {
				return a.src - b.src
			}
			return a.seq - b.seq
		})
		for _, m := range replay {
			id := -(m.src*1_000_000 + m.seq)
			fn := func() { act(m.dst, id) }
			if post {
				s.Engine(m.dst).Post(m.t, m.at, fn)
			} else {
				s.Engine(m.dst).AtFrom(m.t, m.at, fn)
			}
		}
	})
	for i := 0; i < k; i++ {
		rngs[i] = splitmix.New(seed*16 + uint64(i))
		for j := 0; j < 3; j++ {
			id := i*1_000_000 - j - 1
			s.Engine(i).At(Time(rngs[i].Next()%2)*window, func() { act(i, id) })
		}
	}
	pending := func() int {
		n := 0
		for i := 0; i < k; i++ {
			n += len(s.Engine(i).posts)
		}
		return n
	}
	run.stoppedAt = s.Run()
	run.leftAtStop = s.Pending()
	run.postsAfter[0] = pending()
	run.stopped = s.Metrics().Snapshot().JSON()
	// An At between the two Run calls: it ties with whatever is queued
	// at the resume time, and takes its sequence number after every
	// delivery the stopped run's barriers made.
	resume := s.Now() + window/2
	for i := 0; i < k; i++ {
		id := i*1_000_000 - 100
		s.Engine(i).At(resume, func() { act(i, id) })
	}
	s.Run()
	run.postsAfter[1] = pending()
	run.final = s.Metrics().Snapshot().JSON()
	for i := 0; i < k; i++ {
		run.processed[i] = s.Engine(i).Processed
	}
	return run
}

// TestShardSetPostsMatchBarrierAtFrom: on 1 to 4 engines, random
// programs whose barrier-time deliveries are posted — applied when each
// engine's next window opens — fire the same (time, event) sequence on every engine, and
// leave the same metrics — the sim_delay histogram, pending and event
// counts, and at K>1 the barrier schedule — as the same programs with
// every delivery pushed by AtFrom at the barrier. That holds across a
// StopAt, an At issued between two Run calls, and the resume; and Run
// returns with no post pending.
func TestShardSetPostsMatchBarrierAtFrom(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for seed := uint64(1); seed <= 12; seed++ {
			name := fmt.Sprintf("k=%d seed=%d", k, seed)
			want := runPostProgram(k, seed, false)
			got := runPostProgram(k, seed, true)
			if got.postsAfter != [2]int{} {
				t.Fatalf("%s: %v posts pending after the two Run calls, want none", name, got.postsAfter)
			}
			if want.leftAtStop == 0 {
				t.Fatalf("%s: the stopped run left nothing to resume; the test is vacuous", name)
			}
			if got.stoppedAt != want.stoppedAt {
				t.Errorf("%s: stopped run returned at %d, barrier AtFrom at %d", name, got.stoppedAt, want.stoppedAt)
			}
			for i := range want.fired {
				if !slices.Equal(got.fired[i], want.fired[i]) {
					t.Fatalf("%s: engine %d fired\n%v\nbarrier AtFrom fired\n%v", name, i, got.fired[i], want.fired[i])
				}
			}
			if !slices.Equal(got.processed, want.processed) {
				t.Errorf("%s: processed %v, barrier AtFrom %v", name, got.processed, want.processed)
			}
			if got.stopped != want.stopped {
				t.Errorf("%s: metrics after the stopped run differ:\n%s\nbarrier AtFrom:\n%s", name, got.stopped, want.stopped)
			}
			if got.final != want.final {
				t.Errorf("%s: metrics after the resumed run differ:\n%s\nbarrier AtFrom:\n%s", name, got.final, want.final)
			}
		}
	}
}

// TestShardSetRunsPostsOnAnIdleEngine: a delivery posted to an engine
// whose queue is empty is still pending work. The set must plan a window
// for it and run it, not end the run with only posts left.
func TestShardSetRunsPostsOnAnIdleEngine(t *testing.T) {
	s := NewShardSet(2, 100)
	ran := false
	sent := false
	s.OnBarrier(func(Time) {
		if !sent {
			sent = true
			s.Engine(1).Post(0, 150, func() { ran = true })
		}
	})
	s.Engine(0).At(0, func() {})
	s.Run()
	if !ran || s.Pending() != 0 {
		t.Fatalf("after Run: posted event ran %v, %d pending; want it run and nothing pending", ran, s.Pending())
	}
}
