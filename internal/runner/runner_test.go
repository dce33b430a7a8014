package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapIndexStableOrdering(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		out, err := Map(workers, 100, func(i int) (int, error) {
			// Stagger completion so later indexes often finish first.
			time.Sleep(time.Duration(100-i) * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSingleWorkerRunsInSubmissionOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int
	_, err := Map(1, 50, func(i int) (struct{}, error) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v not index order at position %d", order, i)
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	boom7 := errors.New("boom at 7")
	out, err := Map(4, 20, func(i int) (int, error) {
		if i == 7 {
			// Fail late, so the other workers usually reach 13 and
			// fail there first.
			time.Sleep(20 * time.Millisecond)
			return 0, boom7
		}
		if i == 13 {
			return 0, errors.New("boom at 13")
		}
		return i, nil
	})
	// Indices start in ascending order, so the lowest-index failure
	// always runs and surfaces at any worker count.
	if !errors.Is(err, boom7) {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
	if len(out) != 20 {
		t.Fatalf("results truncated to %d", len(out))
	}
}

func TestErrorPropagationSerialSemantics(t *testing.T) {
	// One worker executes in index order, so the earliest-index failure
	// surfaces and later tasks never start — exactly what the old serial
	// sweep loops did.
	boom7 := errors.New("boom at 7")
	out, err := Map(1, 20, func(i int) (int, error) {
		if i == 7 {
			return 0, boom7
		}
		if i == 13 {
			return 0, errors.New("boom at 13")
		}
		return i, nil
	})
	if !errors.Is(err, boom7) {
		t.Fatalf("err = %v, want the earliest-index failure", err)
	}
	// Successful results before the failure are intact.
	for i := 0; i < 7; i++ {
		if out[i] != i {
			t.Errorf("out[%d] = %d", i, out[i])
		}
	}
}

func TestCancellationOnFirstError(t *testing.T) {
	// One worker: task 3 fails, so tasks 4..9 must never start.
	var ran atomic.Int32
	out, err := Map(1, 10, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, fmt.Errorf("fail at %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("%d tasks ran, want 4 (0..3, then no new index)", got)
	}
	if len(out) != 10 {
		t.Errorf("got %d results", len(out))
	}
}

// raise lifts peak to at least n.
func raise(peak *atomic.Int32, n int32) {
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	_, err := Map(workers, 30, func(i int) (struct{}, error) {
		raise(&peak, inFlight.Add(1))
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeded the worker bound %d", p, workers)
	}
}

func TestPoolDefaultsToAllCores(t *testing.T) {
	procs := int32(runtime.GOMAXPROCS(0))
	for _, workers := range []int{0, -1} {
		var inFlight, peak atomic.Int32
		_, err := Map(workers, 4*int(procs), func(int) (struct{}, error) {
			raise(&peak, inFlight.Add(1))
			// Hold the slot until every core's worker has joined.
			for deadline := time.Now().Add(time.Second); peak.Load() < procs && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
			inFlight.Add(-1)
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p != procs {
			t.Errorf("workers=%d: peak concurrency %d, want GOMAXPROCS = %d", workers, p, procs)
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(0 tasks) = %v, %v", out, err)
	}
}
