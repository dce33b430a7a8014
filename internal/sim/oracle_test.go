package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ---- reference implementation: the original container/heap engine ----
//
// The engine must replay the exact (time, seq) order the original
// pointer-based engine produced — that order is what makes every figure
// byte-identical. The oracle below is the pre-refactor implementation,
// kept (minus metrics and cancellation) as the specification.

type oracleEvent struct {
	at  Time
	seq uint64
	fn  func()
	idx int
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *oracleQueue) Push(x any) {
	e := x.(*oracleEvent)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type oracleEngine struct {
	now   Time
	seq   uint64
	queue oracleQueue
}

func (e *oracleEngine) At(at Time, fn func()) {
	ev := &oracleEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
}

func (e *oracleEngine) Run() Time {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*oracleEvent)
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// ---- the shared random workload ----

// firing is one observed execution: which logical event ran and when.
type firing struct {
	id int
	at Time
}

// testEngine is the tiny adapter interface runScript drives both
// engines through.
type testEngine interface {
	schedule(at Time, fn func())
	now() Time
	run()
}

type engineAdapter struct{ e *Engine }

func (a engineAdapter) schedule(at Time, fn func()) { a.e.At(at, fn) }
func (a engineAdapter) now() Time                   { return a.e.Now() }
func (a engineAdapter) run()                        { a.e.Run() }

type oracleAdapter struct{ e *oracleEngine }

func (o oracleAdapter) schedule(at Time, fn func()) { o.e.At(at, fn) }
func (o oracleAdapter) now() Time                   { return o.e.now }
func (o oracleAdapter) run()                        { o.e.Run() }

// runScript replays a seeded cascade: events that schedule further
// events, sometimes at the current instant and often at a time another
// event shares, so the sequence tie-break decides many firings. All decisions come
// from the seeded source, so both engines see the same logical
// workload.
func runScript(seed int64, eng testEngine) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	nextID := 0
	var spawn func(depth int) // schedules one event; fires transitively
	spawn = func(depth int) {
		id := nextID
		nextID++
		at := eng.now() + Time(rng.Intn(50))
		eng.schedule(at, func() {
			log = append(log, firing{id: id, at: eng.now()})
			if depth < 6 {
				for k := rng.Intn(3); k > 0; k-- {
					spawn(depth + 1)
				}
			}
		})
	}
	for i := 0; i < 20; i++ {
		spawn(0)
	}
	eng.run()
	return log
}

// TestArenaMatchesHeapOracle: for many seeds, the engine fires the same
// events at the same times in the same order as the original
// container/heap implementation, under random schedule/fire cascades
// (the determinism contract, event for event).
func TestArenaMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := runScript(seed, engineAdapter{New()})
		want := runScript(seed, oracleAdapter{&oracleEngine{}})
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine fired %d events, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d diverges: engine %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
	}
}
