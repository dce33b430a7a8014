package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// MaxTime is the "no pending work" sentinel of the window scheduler.
const MaxTime = Time(math.MaxInt64)

// ShardSet drives K engines under conservative windowed execution:
// every iteration derives a per-shard window limit no cross-shard
// interaction can beat, lets each shard execute its events below its
// limit concurrently, then runs the barrier hook on the coordinator
// with all shards parked. What the hook schedules it posts to the
// destination engine (Engine.Post), and each shard pushes its own posts
// onto its heap when its next window opens, so the serial barrier
// touches no shard's heap; Run applies every post before it returns.
// See DESIGN §16 for the safety argument.
//
// One shard runs the same window loop on the calling goroutine alone:
// it starts no worker, touches no worker atomic and reads no clock.
type ShardSet struct {
	engines []*Engine
	window  Time
	met     *metrics.Registry
	barrier func(horizon Time)

	// Lookahead configuration, installed by the cluster before Run.
	// bounds[j][i] lower-bounds the delivery time of any frame sent by
	// shard j into shard i; a set never given bounds — which no cluster
	// builds — falls back to the base window.
	bounds   [][]Time
	minB     Time // min over all bounds entries (incl. self rows)
	capOver  Time // limit cap above G (0 = none; retransmit timeout under a fault plan)
	earliest func(shard int) Time

	// Barriers counts scheduler iterations (one barrier each); Elided
	// counts the iterations whose narrowest planned window was wider
	// than the base window — windows a fixed base-window cadence would
	// have split into several barriers. Both count at every shard count
	// but are registered as metric families only on multi-shard sets.
	Barriers uint64
	Elided   uint64

	// stop is the simulated time Run ends at (MaxTime: none). StopAt
	// sets it from an executing event; Run clears it when it returns.
	stop atomic.Int64
	// running is set for the duration of Run; ConfigureLookahead refuses
	// to swap the bound matrix while it is up (see its doc comment).
	running atomic.Bool

	// Worker release/join machinery (K > 1). The coordinator publishes
	// the per-shard limits, resets done, then bumps epoch; workers spin
	// on epoch, run their shard's window, and count themselves into
	// done. The atomic epoch/done pairs carry the happens-before edges
	// both ways; limits and quit ride them as plain slice writes.
	epoch  atomic.Uint32
	done   atomic.Int32
	quit   atomic.Bool
	limits []Time
	ev     []Time // scratch: per-shard earliest pending work e_j
	hv     []Time // scratch: per-shard earliest held cross-shard intent h_j

	// workers holds one reusable spawn closure per non-coordinator
	// shard, built on first use so repeated Run calls do not allocate
	// (steady-state zero-alloc contract). spawnEpoch passes the epoch a
	// batch of workers should treat as already seen; the go statement's
	// happens-before edge publishes it.
	workers    []func()
	spawnEpoch uint32

	merged *metrics.Histogram // snapshot-time scratch for the delay merge

	// phases sums host time per phase of the multi-shard loop (see
	// Phases). Worker i writes only phases.Busy[i], before counting
	// itself done; the coordinator writes the rest. Every phase is
	// timed as a monotonic offset from runStart, the current Run's start
	// (published to the workers by their go statements): one clock read
	// per boundary, against two for a full time.Now. released is the
	// offset at which the current window was opened, published with the
	// epoch, so a worker times its window with a single read.
	phases   Phases
	runStart time.Time
	released time.Duration
}

// Phases is where a multi-shard set's Run calls spent host time, summed
// over every window since the set was built. It is wall-clock data,
// different on every run and host, so it never enters the deterministic
// metrics registry. Each window runs, on the coordinator, Plan, then
// shard 0's window (Busy[0]), then Wait for the other shards, then
// Drain; every other shard's Busy overlaps the coordinator's window and
// wait. Plan and Drain are serial: (Plan+Drain)/Run caps the speedup
// more shards can buy, and max(Busy)/mean(Busy) measures the straggler.
type Phases struct {
	Run   time.Duration   // wall time inside Run
	Plan  time.Duration   // planning every shard's window limit
	Wait  time.Duration   // the coordinator waiting out the other shards
	Drain time.Duration   // the barrier: replay horizon and barrier hook
	Busy  []time.Duration // per shard, from each window's release to the shard finishing it
}

// Phases returns the host-time phase sums of a multi-shard set, and the
// zero Phases for a single-shard set, whose loop reads no clock.
// Call it with the set parked.
func (s *ShardSet) Phases() Phases {
	p := s.phases
	p.Busy = slices.Clone(p.Busy)
	return p
}

// lap adds the host time since the offset *mark to *d and moves the
// mark to now.
func (s *ShardSet) lap(d, mark *time.Duration) {
	now := time.Since(s.runStart)
	*d += now - *mark
	*mark = now
}

// NewShardSet builds a set of k engines over one fresh shared registry,
// with window as its base window (the cadence of a set never given a
// bound matrix). The set registers the sim_* families once, aggregated
// over its engines, so snapshots are byte-identical across shard
// counts. The barrier/elision families exist only at k > 1 — they are
// properties of the schedule, inherently shard-count-dependent — and so
// do the per-shard phase sums.
func NewShardSet(k int, window Time) *ShardSet {
	if k < 1 {
		panic(fmt.Sprintf("sim: shard count %d < 1", k))
	}
	if window <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead window %d", window))
	}
	met := metrics.NewRegistry()
	s := &ShardSet{
		window: window,
		met:    met,
		merged: metrics.NewHistogram(metrics.TimeBuckets()),
		limits: make([]Time, k),
		ev:     make([]Time, k),
		hv:     make([]Time, k),
	}
	s.stop.Store(MaxTime)
	for i := 0; i < k; i++ {
		s.engines = append(s.engines, newEngine(met))
	}
	met.Counters(metrics.FamSimEvents, "events executed by the engine", nil,
		func(m *metrics.Emitter) {
			var n uint64
			for _, e := range s.engines {
				n += e.Processed
			}
			m.Value(float64(n))
		})
	met.Gauges(metrics.FamSimPending, "live events still queued", nil,
		func(m *metrics.Emitter) { m.Value(float64(s.Pending())) })
	met.Gauges(metrics.FamSimNow, "current simulated time", nil,
		func(m *metrics.Emitter) { m.Value(float64(s.Now()) / 1e12) })
	met.Histograms(metrics.FamSimDelay, "scheduling horizon: how far ahead events are placed", nil,
		func(m *metrics.Emitter) {
			s.merged.Reset()
			for _, e := range s.engines {
				s.merged.AddAll(e.delay)
			}
			m.Histogram(s.merged)
		})
	if k == 1 {
		return s
	}
	s.phases.Busy = make([]time.Duration, k)
	met.Counters(metrics.FamShardBarriers, "window barriers run by the sharded engine", nil,
		func(m *metrics.Emitter) { m.Value(float64(s.Barriers)) })
	met.Counters(metrics.FamShardElided, "barriers whose window ran wider than the uniform single-hop baseline", nil,
		func(m *metrics.Emitter) { m.Value(float64(s.Elided)) })
	return s
}

// Shards returns the number of engines in the set.
func (s *ShardSet) Shards() int { return len(s.engines) }

// Engine returns shard i's engine.
func (s *ShardSet) Engine(i int) *Engine { return s.engines[i] }

// Metrics returns the registry shared by every shard.
func (s *ShardSet) Metrics() *metrics.Registry { return s.met }

// OnBarrier installs the hook run on the coordinator after each window,
// with every shard parked. The cluster drains the cross-shard exchange
// here: horizon is the replay horizon — the hook must replay exactly
// the pending intents with time strictly below it (in canonical order)
// and hold the rest for a later barrier. No future intent can be
// recorded below the horizon, so the replayed prefix extends the
// canonical stream deterministically at any shard count. The hook may
// post onto any shard's engine (Engine.Post): the shard applies the
// posts when its next window opens, and Run applies any left when it
// returns.
func (s *ShardSet) OnBarrier(fn func(horizon Time)) { s.barrier = fn }

// ConfigureLookahead installs the set's window schedule: each shard's
// limit is planned from the bound matrix and every shard's earliest
// pending work. bounds[j][i] must lower-bound the delivery time into
// shard i of any frame sent by shard j (mesh.MinDelayMatrix); nil falls
// back to the base window. It is the only call that installs bounds, and
// it arms each engine's self-delivery clamp with the matrix's diagonal
// (Engine.Sent). capOver, when positive, caps every limit at G+capOver:
// with a fault plan armed, drain-time retransmission timers land at
// least a full timeout after the send they re-arm, so no shard may run
// past the earliest possible timer. Calling it again (after an express
// link tightens the matrix) is only allowed with the set parked — before
// Run or between Run calls — and panics mid-run: a send routed over a
// new, faster link inside the current window would be bounded by the
// tighter matrix while the destination shard's limit was planned with
// the old one, so the delivery could land in that shard's past.
func (s *ShardSet) ConfigureLookahead(bounds [][]Time, capOver Time) {
	if s.running.Load() {
		panic("sim: ConfigureLookahead while Run is in progress; topology changes must wait for the set to park")
	}
	if bounds != nil && len(bounds) != len(s.engines) {
		panic(fmt.Sprintf("sim: %d bound rows for %d shards", len(bounds), len(s.engines)))
	}
	s.bounds, s.capOver = bounds, capOver
	s.minB = MaxTime
	for i, e := range s.engines {
		e.selfBound = 0
		if bounds != nil {
			e.selfBound = bounds[i][i]
			s.minB = min(s.minB, slices.Min(bounds[i]))
		}
	}
}

// SetIntentSource installs the exchange's pending-intent probe: fn(j)
// returns the earliest recorded-but-not-yet-replayed transmission time
// attributable to shard j, or MaxTime. It MUST cover intents recorded
// in the window that just ran, not only those held from earlier drains:
// the probe is read at the barrier, before the hook merges fresh
// intents, and the replay horizon's cascade bound is only sound over
// every pending intent. The elision policy treats the probe as pending
// work (a held intent is an appointment: its delivery lands at or after
// t + B[j][i]), and the replay horizon uses the global minimum to keep
// the canonical stream prefix-closed.
func (s *ShardSet) SetIntentSource(fn func(shard int) Time) { s.earliest = fn }

// Now returns the maximum engine clock across shards: the time of the
// last event executed anywhere, which is what a single engine's Now
// reports after the same run. Call it with the shards parked — between
// Run calls, from the barrier hook, or from a metrics sampler — not
// from inside an executing event, where sibling shards are advancing
// their clocks concurrently.
func (s *ShardSet) Now() Time {
	var t Time
	for _, e := range s.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Pending returns the total events queued or posted across shards.
// Like Now, call it only with the shards parked.
func (s *ShardSet) Pending() int {
	var n int
	for _, e := range s.engines {
		n += e.Pending()
	}
	return n
}

// StopAt makes Run return at simulated time t: once every event and
// replayed intent before t has run on every shard, and nothing at or
// after t has. Call it from an event executing on e's shard: e clamps
// its running window to t, and every later window is capped at t. The
// other shards are mid-window, so t must lie past their limits; the
// coordinator panics, naming t and the shard, if a shard has already
// run to t. Run clears the stop when it returns, so a later Run resumes.
func (s *ShardSet) StopAt(e *Engine, t Time) {
	e.clampWindow(t)
	s.stop.Store(t)
}

// checkStop panics if a shard's window reached past the requested stop,
// or the shard already ran an event at or after it. Call it with the
// shards parked.
func (s *ShardSet) checkStop() {
	t := s.stop.Load()
	for i, e := range s.engines {
		if e.limit > t || e.now >= t {
			panic(fmt.Sprintf("sim: stop at %d requested after shard %d ran to %d", t, i, max(e.limit, e.now)))
		}
	}
}

// satAdd adds a bound to a time without overflowing the sentinel.
func satAdd(t, d Time) Time {
	if t >= MaxTime-d {
		return MaxTime
	}
	return t + d
}

// Run executes windows until every shard's queue drains or the time
// StopAt asked for, and returns the final time. Like Engine.Run it may
// be called again to resume after a stop. It applies every post the
// last barrier made before it returns, so what the caller sees between
// two Run calls — a snapshot, an At, a resume — is the queue a barrier
// that scheduled straight into the heaps would have left. One loop runs
// at every shard count; only a multi-shard set starts workers and times
// its phases.
func (s *ShardSet) Run() Time {
	s.running.Store(true)
	defer func() {
		s.running.Store(false)
		s.stop.Store(MaxTime)
	}()
	k := len(s.engines)
	par := k > 1
	var mark time.Duration
	ph := &s.phases
	if par {
		s.startWorkers()
		// Release the workers on the way out, including when an event or
		// the barrier hook panics on the coordinator: a diagnosed model
		// failure must not leave the other shards spinning.
		defer func() {
			s.quit.Store(true)
			s.done.Store(0)
			s.epoch.Add(1)
			s.await(k - 1)
			ph.Run += time.Since(s.runStart)
		}()
	}
	for {
		more := s.plan()
		if par {
			s.lap(&ph.Plan, &mark)
		}
		if !more {
			break
		}
		if par {
			s.released = mark
			s.done.Store(0)
			s.epoch.Add(1)
		}
		s.engines[0].runWindow(s.limits[0]) // the coordinator is shard 0's worker
		if par {
			s.lap(&ph.Busy[0], &mark)
			s.await(k - 1)
			s.lap(&ph.Wait, &mark)
		}
		s.checkStop()
		if s.barrier != nil {
			s.barrier(s.horizon())
		}
		if par {
			s.lap(&ph.Drain, &mark)
		}
	}
	for _, e := range s.engines {
		e.applyPosts()
	}
	return s.Now()
}

// plan computes this iteration's per-shard limits into s.limits, each
// capped at the stop, and reports whether any work is pending before
// the stop; G below is the globally earliest pending work.
//
// Safety: shard i's planned limit never exceeds e_j + B[j][i] for any
// other shard j, nor h_i + B[i][i] for its own held intents, so every
// frame another shard can send — and every frame already held — arrives
// at or after the limit of the shard it lands in. The one source the
// static plan does not cover, a fresh send by shard i into itself, is
// covered dynamically: recording the send clamps i's running window to
// its time plus B[i][i] (Engine.Sent). Deliveries placed at the
// barrier therefore always land in the destination shard's future, and
// the canonical replay stream stays (time, source, sequence)-sorted.
// A set never given bounds (no cluster builds one) falls back to the
// base window G + window and arms no clamp; it is sound only while the
// base window is no wider than any delivery.
func (s *ShardSet) plan() bool {
	g := MaxTime
	for j, e := range s.engines {
		ej := MaxTime
		if t, ok := e.nextTime(); ok {
			ej = t
		}
		hj := MaxTime
		if s.earliest != nil {
			hj = s.earliest(j)
		}
		if hj < ej {
			ej = hj
		}
		s.ev[j] = ej
		s.hv[j] = hj
		if ej < g {
			g = ej
		}
	}
	stop := s.stop.Load()
	if g >= stop {
		return false
	}
	capAt := stop
	if s.capOver > 0 {
		capAt = min(capAt, satAdd(g, s.capOver))
	}
	minLim := MaxTime
	for i := range s.limits {
		lim := g + s.window
		if s.bounds != nil {
			lim = satAdd(s.hv[i], s.bounds[i][i])
			for j := range s.engines {
				if j != i {
					lim = min(lim, satAdd(s.ev[j], s.bounds[j][i]))
				}
			}
		}
		lim = min(lim, capAt)
		s.limits[i] = lim
		minLim = min(minLim, lim)
	}
	s.Barriers++
	if minLim > satAdd(g, s.window) {
		s.Elided++
	}
	return true
}

// horizon returns the barrier's replay horizon: no pending or future
// transmission intent can carry a time below it. Future sends originate
// either from an already-queued event (bounded by the earliest queue
// head) or from the delivery cascade of a pending intent (bounded by
// the earliest intent plus the global minimum delivery bound). The
// intent source must therefore report every pending intent — held from
// past drains AND recorded in the window that just ran — since under
// sparse queues the cascade term is all that keeps a late fresh intent
// from replaying ahead of an earlier one's future response.
func (s *ShardSet) horizon() Time {
	h := MaxTime
	for _, e := range s.engines {
		if t, ok := e.nextTime(); ok && t < h {
			h = t
		}
	}
	if s.earliest != nil && s.bounds != nil {
		m := MaxTime
		for j := range s.engines {
			if t := s.earliest(j); t < m {
				m = t
			}
		}
		if hb := satAdd(m, s.minB); hb < h {
			h = hb
		}
	}
	return h
}

// startWorkers starts one worker goroutine per shard past the first and
// stamps the run's start, the origin of every phase offset.
func (s *ShardSet) startWorkers() {
	if s.workers == nil {
		for i := 1; i < len(s.engines); i++ {
			i := i
			s.workers = append(s.workers, func() { s.work(i, s.spawnEpoch) })
		}
	}
	s.runStart = time.Now()
	s.quit.Store(false)
	s.spawnEpoch = s.epoch.Load()
	for _, w := range s.workers {
		go w()
	}
}

// work is one shard's worker loop: spin until the coordinator opens a
// new window, run it, report done. Windows are microseconds apart, so a
// short spin before yielding wins over channel parking.
func (s *ShardSet) work(i int, seen uint32) {
	spins := 0
	for {
		e := s.epoch.Load()
		if e == seen {
			if spins++; spins > 256 {
				runtime.Gosched()
			}
			continue
		}
		seen = e
		spins = 0
		if s.quit.Load() {
			s.done.Add(1)
			return
		}
		s.engines[i].runWindow(s.limits[i])
		s.phases.Busy[i] += time.Since(s.runStart) - s.released
		s.done.Add(1)
	}
}

// await spins until n workers have finished the current window.
func (s *ShardSet) await(n int) {
	spins := 0
	for int(s.done.Load()) < n {
		if spins++; spins > 256 {
			runtime.Gosched()
		}
	}
}
