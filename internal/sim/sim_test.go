package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	if end := e.Run(); end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	e := New()
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v, want [10 15]", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestResourceFIFO(t *testing.T) {
	r := NewResource(0)
	// Three back-to-back acquisitions at t=0 with occupancy 10 complete at
	// 10, 20, 30: FIFO single server.
	for i, want := range []Time{10, 20, 30} {
		done, ok := r.Acquire(0, 10)
		if !ok || done != want {
			t.Errorf("acquire %d: done=%d ok=%v, want %d", i, done, ok, want)
		}
	}
	if r.Served != 3 {
		t.Errorf("Served = %d, want 3", r.Served)
	}
	if r.Busy != 30 {
		t.Errorf("Busy = %d, want 30", r.Busy)
	}
}

func TestResourceIdleGap(t *testing.T) {
	r := NewResource(0)
	r.Acquire(0, 10)
	// Arrival after the server went idle starts immediately.
	done, ok := r.Acquire(100, 10)
	if !ok || done != 110 {
		t.Errorf("post-idle acquire done=%d, want 110", done)
	}
}

func TestResourceBoundedQueue(t *testing.T) {
	r := NewResource(2)
	// One in service + up to 2 waiting admitted; honours depth+1 in flight.
	var admitted int
	for i := 0; i < 5; i++ {
		if _, ok := r.Acquire(0, 100); ok {
			admitted++
		}
	}
	if admitted != 3 {
		t.Errorf("admitted %d requests, want 3 (1 in service + 2 queued)", admitted)
	}
	if r.Rejected != 2 {
		t.Errorf("Rejected = %d, want 2", r.Rejected)
	}
	// After the backlog drains, admission resumes.
	if _, ok := r.Acquire(301, 100); !ok {
		t.Error("acquire after drain rejected")
	}
}

func TestResourcePenalize(t *testing.T) {
	r := NewResource(0)
	r.Penalize(50, 25)
	done, ok := r.Acquire(50, 10)
	if !ok || done != 85 {
		t.Errorf("acquire after penalty done=%d, want 85", done)
	}
	r.Penalize(1000, 0) // zero penalty is a no-op
	if r.NextFree() != 85 {
		t.Errorf("NextFree moved by zero penalty: %d", r.NextFree())
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource(0)
	r.Acquire(0, 50)
	if u := r.Utilization(100); u != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Errorf("Utilization(0) = %v, want 0", u)
	}
}

func TestResourceCompletionMonotoneProperty(t *testing.T) {
	// Completions of a FIFO resource are non-decreasing regardless of the
	// arrival pattern, and never precede arrival+occupancy.
	f := func(arrivals []uint16, occ uint8) bool {
		r := NewResource(0)
		occupancy := Time(occ%100) + 1
		now, last := Time(0), Time(0)
		for _, a := range arrivals {
			now += Time(a % 1000)
			done, ok := r.Acquire(now, occupancy)
			if !ok {
				return false
			}
			if done < last || done < now+occupancy {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHeapPopsInKeyOrder: random pushes and pops, with many entries at
// equal times, some at times past 2^62 and some sequences in the replay
// band, pop in exactly the (at, seq) order of a reference that scans
// for the least key with plain comparisons.
func TestHeapPopsInKeyOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var ref []entry
		var seq uint64
		for step := 0; step < 2000; step++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				at := Time(rng.Intn(8))
				if rng.Intn(10) == 0 {
					at = 1<<62 + Time(rng.Intn(4))
				}
				s := seq
				if rng.Intn(4) == 0 {
					s |= replayBand
				}
				seq++
				e.push(at, s, nil)
				ref = append(ref, entry{at: at, seq: s})
				continue
			}
			m := 0
			for j := range ref {
				if ref[j].at < ref[m].at || (ref[j].at == ref[m].at && ref[j].seq < ref[m].seq) {
					m = j
				}
			}
			got := e.pop()
			if got.at != ref[m].at || got.seq != ref[m].seq {
				t.Logf("seed %d step %d: popped (%d, %#x), want (%d, %#x)", seed, step, got.at, got.seq, ref[m].at, ref[m].seq)
				return false
			}
			ref = append(ref[:m], ref[m+1:]...)
		}
		return e.Pending() == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := New()
		var log []Time
		var step func(i int)
		step = func(i int) {
			log = append(log, e.Now())
			if i < 50 {
				e.After(Time(i%7+1), func() { step(i + 1) })
			}
		}
		e.At(0, func() { step(0) })
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestResourcePenalizeHoldsQueueSlots(t *testing.T) {
	r := NewResource(1)
	// Fill the queue: one in service (completes at 10), one waiting
	// (completes at 20).
	if _, ok := r.Acquire(0, 10); !ok {
		t.Fatal("first acquire rejected")
	}
	if _, ok := r.Acquire(0, 10); !ok {
		t.Fatal("second acquire rejected")
	}
	if _, ok := r.Acquire(0, 10); ok {
		t.Fatal("third acquire admitted into a full queue")
	}
	// NACK processing costs the server 15; the backlog now drains at 35,
	// so the queued requests hold their slots past their original
	// completion times.
	r.Penalize(0, 15)
	if n := r.QueueLen(21); n != 2 {
		t.Errorf("QueueLen(21) = %d, want 2 (server backlogged until 35)", n)
	}
	if _, ok := r.Acquire(21, 10); ok {
		t.Error("admitted a request while the penalized backlog held the queue full")
	}
	// Once the penalized backlog drains, slots free and admission resumes.
	if n := r.QueueLen(35); n != 0 {
		t.Errorf("QueueLen(35) = %d, want 0", n)
	}
	done, ok := r.Acquire(36, 10)
	if !ok || done != 46 {
		t.Errorf("acquire after drain: done=%d ok=%v, want 46", done, ok)
	}
}

func TestResourcePenalizeLeavesCompletedAlone(t *testing.T) {
	r := NewResource(2)
	r.Acquire(0, 10) // completes at 10
	// A penalty after the request finished must not resurrect its slot.
	r.Penalize(20, 5)
	if n := r.QueueLen(20); n != 0 {
		t.Errorf("QueueLen(20) = %d, want 0 (completed request resurrected)", n)
	}
	if r.NextFree() != 25 {
		t.Errorf("NextFree = %d, want 25", r.NextFree())
	}
}
