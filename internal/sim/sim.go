// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is single-threaded on purpose: events execute in strict
// (time, sequence) order, so a simulation with a fixed seed always
// produces bit-identical results, which the experiment harness relies on.
// Model components schedule closures; shared hardware (links, RMCs,
// memory controllers) is modeled with Resource, a FIFO single server
// with an optional bounded queue.
//
// The hot path is allocation-free in steady state: events are values in
// an index-based 4-ary min-heap that carry their own closures. A
// scheduled event always fires; nothing cancels one (see DESIGN.md §11).
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/metrics"
)

// Time is simulation time in picoseconds.
type Time = int64

// entry is one scheduled event: its firing time, the global FIFO
// tie-breaker, and the closure to run.
type entry struct {
	at  Time
	seq uint64
	fn  func()
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create engines with New.
type Engine struct {
	now   Time
	seq   uint64
	queue []entry
	// limit is the live bound of the window runWindow is executing.
	// The windowed send path lowers it mid-window (ClampWindow) when
	// the shard records a transmission whose own-shard delivery bound
	// lands before the planned limit — the scheduler can then hand out
	// limits that assume "no send yet", and the first actual send pulls
	// the window back to what it provably may run to.
	limit Time
	// posts holds what the window barrier scheduled onto this engine, in
	// the order it was scheduled; the engine applies them through AtFrom
	// when its next window opens (see Post). postMin is their earliest
	// firing time, MaxTime when there are none.
	posts   []post
	postMin Time
	// Processed counts executed events, for instrumentation.
	Processed uint64

	met   *metrics.Registry
	delay *metrics.Histogram
}

// New returns an empty engine at time zero.
func New() *Engine {
	e := newBare(metrics.NewRegistry())
	e.met.Counters(metrics.FamSimEvents, "events executed by the engine", nil,
		func(m *metrics.Emitter) { m.Value(float64(e.Processed)) })
	e.met.Gauges(metrics.FamSimPending, "live events still queued", nil,
		func(m *metrics.Emitter) { m.Value(float64(e.Pending())) })
	e.met.Gauges(metrics.FamSimNow, "current simulated time", nil,
		func(m *metrics.Emitter) { m.Value(float64(e.now) / 1e12) })
	e.met.Histograms(metrics.FamSimDelay, "scheduling horizon: how far ahead events are placed", nil,
		func(m *metrics.Emitter) { m.Histogram(e.delay) })
	return e
}

// newBare returns an engine that reports into a shared registry but does
// not register the engine-level families: a ShardSet owns those and
// presents the per-shard values aggregated, so a sharded system's
// snapshot carries the same sim_* families as a single-engine one.
func newBare(met *metrics.Registry) *Engine {
	return &Engine{met: met, delay: metrics.NewHistogram(metrics.TimeBuckets()), postMin: MaxTime}
}

// Metrics returns the registry every substrate sharing this engine
// reports into. One registry per simulated system keeps snapshots
// deterministic under the parallel harness.
func (e *Engine) Metrics() *metrics.Registry { return e.met }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// before reports whether (at, seq) fires before (bt, bseq), as 1 or 0:
// the borrow out of subtracting the second 128-bit key from the first,
// seq the low word and at the high. Times are never negative (the
// clock starts at 0 and nothing is scheduled in its past), so at orders
// as an unsigned word, and the compare has no branch to mispredict.
func before(at Time, seq uint64, bt Time, bseq uint64) uint64 {
	_, borrow := bits.Sub64(seq, bseq, 0)
	_, borrow = bits.Sub64(uint64(at), uint64(bt), borrow)
	return borrow
}

// push inserts an entry, sifting up through the 4-ary heap.
func (e *Engine) push(at Time, seq uint64, fn func()) {
	e.queue = append(e.queue, entry{})
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if before(q[p].at, q[p].seq, at, seq) != 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = entry{at: at, seq: seq, fn: fn}
}

// pop removes and returns the minimum entry, sifting the displaced tail
// down. The 4-ary layout halves tree depth versus binary, and the node's
// children share cache lines — pops dominate the engine's profile. The
// least child is selected arithmetically, without a branch per compare;
// keys are unique (seq is), so the order it finds is the only one.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	moved := q[n]
	e.queue = q[:n]
	if n > 0 {
		q = q[:n]
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := min(c+4, n)
			m := c
			for j := c + 1; j < end; j++ {
				m += (j - m) & -int(before(q[j].at, q[j].seq, q[m].at, q[m].seq))
			}
			if before(moved.at, moved.seq, q[m].at, q[m].seq) != 0 {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = moved
	}
	return top
}

// replayBand is OR'd into the heap sequence of every entry scheduled
// through AtFrom. Heap ties at equal time break by sequence, and the
// sequence an event gets depends on when it was scheduled — which, for
// a cross-shard replay, depends on which barrier replayed it. The band
// bit pins that order independent of the barrier schedule: a replayed
// event always fires after every same-time local (At/After) event, and
// replayed events order among themselves by replay-stream position,
// both of which are pure functions of simulated state. Without it, a
// wider window could interleave a replay between two same-time local
// events that a narrower window kept apart, breaking byte-identity
// across shard counts.
const replayBand = uint64(1) << 63

// At schedules fn to run at the absolute time at. Scheduling in the past
// panics: it would silently corrupt causality in a model.
func (e *Engine) At(at Time, fn func()) {
	e.schedule(at, at-e.now, 0, fn)
}

// AtFrom schedules fn at the absolute time at, recording the scheduling
// horizon relative to base instead of the engine's clock, and placing
// the event in the replay band (see replayBand). It is what a barrier's
// Post applies when the engine's window opens: the horizon it observes
// (arrival minus send time) is a pure function of simulated state, so
// the delay histogram stays byte-identical at any shard count, and the
// band keeps same-time tie order schedule-invariant.
func (e *Engine) AtFrom(base, at Time, fn func()) {
	e.schedule(at, at-base, replayBand, fn)
}

// post is one barrier-time schedule waiting for its engine's next
// window: AtFrom(base, at, fn), deferred.
type post struct {
	base, at Time
	fn       func()
}

// Post schedules fn at at as AtFrom(base, at, fn) does, but leaves the
// heap push to the engine's own window: the engine applies its posts,
// in the order they were made, when its next window opens, and a
// ShardSet's Run applies every post before it returns. Nothing else
// schedules onto a parked engine, so each post takes the sequence
// number AtFrom would have given it at the barrier, and the event fires
// exactly where AtFrom would have placed it. Call it only with the
// engine parked — from the barrier hook — where it lets the coordinator
// hand a shard its deliveries without touching that shard's heap.
func (e *Engine) Post(base, at Time, fn func()) {
	// Checked here, on the posting goroutine, so a bad post panics where
	// the barrier can report it, not later inside a worker's window.
	if at < e.now {
		panic(fmt.Sprintf("sim: posting at %d before now %d", at, e.now))
	}
	e.posts = append(e.posts, post{base: base, at: at, fn: fn})
	e.postMin = min(e.postMin, at)
}

// applyPosts schedules every pending post through AtFrom, in order.
func (e *Engine) applyPosts() {
	if len(e.posts) == 0 {
		return
	}
	for i := range e.posts {
		p := &e.posts[i]
		e.AtFrom(p.base, p.at, p.fn)
	}
	clear(e.posts)
	e.posts = e.posts[:0]
	e.postMin = MaxTime
}

func (e *Engine) schedule(at, horizon Time, band uint64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", at, e.now))
	}
	e.delay.Observe(horizon)
	e.push(at, band|e.seq, fn)
	e.seq++
}

// After schedules fn to run d picoseconds from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// fire pops the minimum entry and runs it.
func (e *Engine) fire() {
	ev := e.pop()
	e.now = ev.at
	e.Processed++
	ev.fn()
}

// Run applies any posts, then executes events until the queue drains.
// It returns the final simulation time.
func (e *Engine) Run() Time {
	e.applyPosts()
	for len(e.queue) > 0 {
		e.fire()
	}
	return e.now
}

// Pending returns the number of events still queued, posts included.
func (e *Engine) Pending() int { return len(e.queue) + len(e.posts) }

// nextTime returns the firing time of the earliest queued or posted
// event.
func (e *Engine) nextTime() (Time, bool) {
	if len(e.queue) == 0 {
		return e.postMin, len(e.posts) > 0
	}
	return min(e.queue[0].at, e.postMin), true
}

// runWindow applies the engine's posts, then executes every event with
// a firing time strictly below limit. It is the per-shard half of the
// conservative PDES loop: events at or past the window limit may still
// be affected by cross-shard traffic merged at the barrier, so they
// stay queued.
func (e *Engine) runWindow(limit Time) {
	e.applyPosts()
	e.limit = limit
	for len(e.queue) > 0 && e.queue[0].at < e.limit {
		e.fire()
	}
}

// ClampWindow lowers the current window's limit. Only the goroutine
// executing this engine's window may call it — in practice the windowed
// exchange, from inside a sending event — so the write needs no
// synchronization. Raising the limit is not possible: the scheduler's
// published bound stays the ceiling.
func (e *Engine) ClampWindow(t Time) {
	if t < e.limit {
		e.limit = t
	}
}

// Limit returns the limit of the window the engine ran last, as lowered
// by any ClampWindow: the point up to which the shard may already have
// executed events. Read it with the shard parked; the exchange names it
// when a barrier-time schedule lands in the shard's past.
func (e *Engine) Limit() Time { return e.limit }
