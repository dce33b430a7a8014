package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/metrics"
)

// MaxTime is the "no pending work" sentinel of the window scheduler.
const MaxTime = Time(math.MaxInt64)

// ShardSet drives K engines under conservative windowed execution:
// every iteration derives a per-shard window limit no cross-shard
// interaction can beat, lets each shard execute its events below its
// limit concurrently, then runs the barrier hook on the coordinator
// with all shards parked. See DESIGN §16 for the safety argument.
//
// A ShardSet with one engine runs entirely inline — no goroutines, no
// atomics on the event path — so the single-shard configuration keeps
// the exact execution profile of the plain engine.
type ShardSet struct {
	engines []*Engine
	window  Time
	met     *metrics.Registry
	barrier func(horizon Time)

	// Lookahead configuration, installed by the cluster before Run.
	// bounds[j][i] lower-bounds the delivery time of any frame sent by
	// shard j into shard i; nil bounds, or elide unset, fall back to the
	// uniform window.
	elide    bool
	bounds   [][]Time
	minB     Time // min over all bounds entries (incl. self rows)
	capOver  Time // limit cap above G (0 = none; retransmit timeout under a fault plan)
	earliest func(shard int) Time

	// Barriers counts scheduler iterations (one barrier each); Elided
	// counts the iterations whose narrowest planned window was wider
	// than the uniform baseline would have allowed — windows the uniform
	// cadence would have split into several barriers. Registered as
	// metric families only on multi-shard sets, so single-shard output
	// is untouched.
	Barriers uint64
	Elided   uint64

	stopReq atomic.Bool
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
}

// WrapEngine adapts a self-registered engine (from New) into a
// single-shard set: same registry, same families, inline execution.
func WrapEngine(e *Engine, window Time) *ShardSet {
	if window <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead window %d", window))
	}
	return &ShardSet{engines: []*Engine{e}, window: window, met: e.met}
}

// NewShardSet builds k bare engines over one fresh shared registry and
// registers aggregated sim_* families matching what a single engine
// self-registers, so snapshots are byte-identical across shard counts.
// The barrier/elision families exist only here — they are properties of
// the multi-shard schedule, inherently shard-count-dependent, and a
// single-shard run must stay byte-identical to its pre-sharding output.
func NewShardSet(k int, window Time) *ShardSet {
	if k < 1 {
		panic(fmt.Sprintf("sim: shard count %d < 1", k))
	}
	if k == 1 {
		return WrapEngine(New(), window)
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
	for i := 0; i < k; i++ {
		s.engines = append(s.engines, newBare(met))
	}
	met.CounterFunc(metrics.FamSimEvents, "events executed by the engine", nil,
		func() uint64 {
			var n uint64
			for _, e := range s.engines {
				n += e.Processed
			}
			return n
		})
	met.GaugeFunc(metrics.FamSimPending, "live events still queued", nil,
		func() float64 { return float64(s.Pending()) })
	met.GaugeFunc(metrics.FamSimNow, "current simulated time", nil,
		func() float64 { return float64(s.Now()) / 1e12 })
	met.HistogramFunc(metrics.FamSimDelay, "scheduling horizon: how far ahead events are placed", nil,
		metrics.TimeBuckets(), func() *metrics.Histogram {
			s.merged.Reset()
			for _, e := range s.engines {
				s.merged.AddAll(e.delay)
			}
			return s.merged
		})
	met.CounterFunc(metrics.FamShardBarriers, "window barriers run by the sharded engine", nil,
		func() uint64 { return s.Barriers })
	met.CounterFunc(metrics.FamShardElided, "barriers whose window ran wider than the uniform single-hop baseline", nil,
		func() uint64 { return s.Elided })
	return s
}

// Shards returns the number of engines in the set.
func (s *ShardSet) Shards() int { return len(s.engines) }

// Engine returns shard i's engine.
func (s *ShardSet) Engine(i int) *Engine { return s.engines[i] }

// Metrics returns the registry shared by every shard.
func (s *ShardSet) Metrics() *metrics.Registry { return s.met }

// Window returns the uniform lookahead window (the width every shard
// runs without elision, and the accounting unit of the elision counter).
func (s *ShardSet) Window() Time { return s.window }

// OnBarrier installs the hook run on the coordinator after each window,
// with every shard parked. The cluster drains the cross-shard exchange
// here: horizon is the replay horizon — the hook must replay exactly
// the pending intents with time strictly below it (in canonical order)
// and hold the rest for a later barrier. No future intent can be
// recorded below the horizon, so the replayed prefix extends the
// canonical stream deterministically at any shard count. The hook may
// schedule onto any shard's engine.
func (s *ShardSet) OnBarrier(fn func(horizon Time)) { s.barrier = fn }

// ConfigureLookahead installs the window schedule of a multi-shard set:
// elide plans each shard's limit from the bound matrix and every shard's
// earliest pending work; otherwise every shard runs the uniform window.
// bounds[j][i] must lower-bound the delivery time into shard i of any
// frame sent by shard j (mesh.MinDelayMatrix); nil keeps the uniform
// fallback. capOver, when positive, caps every limit at G+capOver: with
// a fault plan armed, drain-time retransmission timers land at least a
// full timeout after the send they re-arm, so no shard may run past the
// earliest possible timer. Calling it again (after an express link
// tightens the matrix) is only allowed with the set parked — before Run
// or between Run calls — and panics mid-run: a send routed over a new,
// faster link inside the current window would be bounded by the tighter
// matrix while the destination shard's limit was planned with the old
// one, so the delivery could land in that shard's past.
func (s *ShardSet) ConfigureLookahead(elide bool, bounds [][]Time, capOver Time) {
	if len(s.engines) == 1 {
		return
	}
	if s.running.Load() {
		panic("sim: ConfigureLookahead while Run is in progress; topology changes must wait for the set to park")
	}
	if bounds != nil && len(bounds) != len(s.engines) {
		panic(fmt.Sprintf("sim: %d bound rows for %d shards", len(bounds), len(s.engines)))
	}
	s.elide, s.bounds, s.capOver = elide, bounds, capOver
	s.minB = MaxTime
	for _, row := range bounds {
		for _, b := range row {
			if b < s.minB {
				s.minB = b
			}
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

// Pending returns the total live events queued across shards. Like
// Now, call it only with the shards parked.
func (s *ShardSet) Pending() int {
	var n int
	for _, e := range s.engines {
		n += e.live
	}
	return n
}

// Stop makes Run return at the end of the current window. Safe to call
// from an event executing on any shard; the coordinator checks the flag
// after the barrier.
func (s *ShardSet) Stop() { s.stopReq.Store(true) }

// satAdd adds a bound to a time without overflowing the sentinel.
func satAdd(t, d Time) Time {
	if t >= MaxTime-d {
		return MaxTime
	}
	return t + d
}

// Run executes windows until every shard's queue drains or Stop is
// called, and returns the final time. Like Engine.Run it may be called
// again to resume after a Stop.
func (s *ShardSet) Run() Time {
	s.running.Store(true)
	defer s.running.Store(false)
	if len(s.engines) == 1 {
		e := s.engines[0]
		for {
			t, ok := e.nextTime()
			if !ok {
				break
			}
			e.runWindow(t + s.window)
			if s.barrier != nil {
				s.barrier(MaxTime)
			}
			if s.stopReq.Load() {
				s.stopReq.Store(false)
				break
			}
		}
		return s.Now()
	}
	return s.runParallel()
}

// plan computes this iteration's per-shard limits into s.limits and
// returns G, the globally earliest pending work (MaxTime when idle).
//
// Safety: shard i's planned limit never exceeds e_j + B[j][i] for any
// other shard j, nor h_i + B[i][i] for its own held intents, so every
// frame another shard can send — and every frame already held — arrives
// at or after the limit of the shard it lands in. The one source the
// static plan does not cover, a fresh send by shard i into itself, is
// covered dynamically: recording the send clamps i's running window to
// its time plus B[i][i] (Engine.ClampWindow). Deliveries placed at the
// barrier therefore always land in the destination shard's future, and
// the canonical replay stream stays (time, source, sequence)-sorted.
// Without elision the limit degrades to G + window, the uniform cadence
// (the clamp never binds there: any send in the window lands at or after
// G + one edge cost >= G + window).
func (s *ShardSet) plan() Time {
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
	if g == MaxTime {
		return g
	}
	if s.bounds == nil || !s.elide {
		lim := g + s.window
		for i := range s.limits {
			s.limits[i] = lim
		}
	} else {
		for i := range s.limits {
			lim := satAdd(s.hv[i], s.bounds[i][i])
			for j := range s.engines {
				if j == i {
					continue
				}
				if b := satAdd(s.ev[j], s.bounds[j][i]); b < lim {
					lim = b
				}
			}
			s.limits[i] = lim
		}
	}
	if s.capOver > 0 {
		capAt := satAdd(g, s.capOver)
		for i := range s.limits {
			if s.limits[i] > capAt {
				s.limits[i] = capAt
			}
		}
	}
	s.Barriers++
	minLim := s.limits[0]
	for _, l := range s.limits[1:] {
		if l < minLim {
			minLim = l
		}
	}
	if minLim > satAdd(g, s.window) {
		s.Elided++
	}
	return g
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

func (s *ShardSet) runParallel() Time {
	k := len(s.engines)
	if s.workers == nil {
		for i := 1; i < k; i++ {
			i := i
			s.workers = append(s.workers, func() { s.work(i, s.spawnEpoch) })
		}
	}
	s.quit.Store(false)
	s.spawnEpoch = s.epoch.Load()
	for _, w := range s.workers {
		go w()
	}
	for {
		if s.plan() == MaxTime {
			break
		}
		s.done.Store(0)
		s.epoch.Add(1)
		s.engines[0].runWindow(s.limits[0]) // the coordinator is shard 0's worker
		s.await(k - 1)
		if s.barrier != nil {
			s.barrier(s.horizon())
		}
		if s.stopReq.Load() {
			s.stopReq.Store(false)
			break
		}
	}
	s.quit.Store(true)
	s.done.Store(0)
	s.epoch.Add(1)
	s.await(k - 1)
	return s.Now()
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
