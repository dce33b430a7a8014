package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/sim"
)

// fakeMem completes local accesses after localLat and remote after
// remoteLat, tracking the maximum concurrency it observed per class.
type fakeMem struct {
	eng                 *sim.Engine
	localLat, remoteLat sim.Time
	inLocal, inRemote   int
	maxLocal, maxRemote int
	issued              int
	lastExpress         bool
	perCoreIssues       map[int]int
}

func newFakeMem(eng *sim.Engine, l, r sim.Time) *fakeMem {
	return &fakeMem{eng: eng, localLat: l, remoteLat: r, perCoreIssues: map[int]int{}}
}

func (m *fakeMem) IsRemote(a addr.Phys) bool { return !a.IsLocal() }

func (m *fakeMem) Issue(now sim.Time, core int, a Access, express bool, done func(sim.Time)) {
	m.issued++
	m.perCoreIssues[core]++
	m.lastExpress = express
	if m.IsRemote(a.Addr) {
		m.inRemote++
		if m.inRemote > m.maxRemote {
			m.maxRemote = m.inRemote
		}
		m.eng.At(now+m.remoteLat, func() {
			m.inRemote--
			done(m.eng.Now())
		})
		return
	}
	m.inLocal++
	if m.inLocal > m.maxLocal {
		m.maxLocal = m.inLocal
	}
	m.eng.At(now+m.localLat, func() {
		m.inLocal--
		done(m.eng.Now())
	})
}

func remoteAccs(n int) []Access {
	accs := make([]Access, n)
	for i := range accs {
		accs[i] = Access{Addr: addr.Phys(uint64(i) * 64).WithNode(2)}
	}
	return accs
}

func localAccs(n int) []Access {
	accs := make([]Access, n)
	for i := range accs {
		accs[i] = Access{Addr: addr.Phys(uint64(i) * 64)}
	}
	return accs
}

func newThread(t *testing.T, c ThreadConfig) *Thread {
	t.Helper()
	th, err := NewThread(c)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// elapsed returns a finished thread's runtime, FinishTime - StartTime,
// and fails the test if the thread has not finished: a run that ended
// early has no runtime to compare.
func elapsed(t *testing.T, th *Thread) sim.Time {
	t.Helper()
	if !th.Done {
		t.Fatalf("thread %q not finished", th.Name)
	}
	return th.FinishTime - th.StartTime
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 10, 100)
	s := NewSliceStream(nil)
	if _, err := NewThread(ThreadConfig{Engine: eng, Memory: m, Stream: s, WindowLocal: 0, WindowRemote: 1}); err == nil {
		t.Error("zero local window accepted")
	}
	if _, err := NewThread(ThreadConfig{Engine: eng, Memory: m, Stream: s, WindowLocal: 1, WindowRemote: 0}); err == nil {
		t.Error("zero remote window accepted")
	}
	if _, err := NewThread(ThreadConfig{Memory: m, Stream: s, WindowLocal: 1, WindowRemote: 1}); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestRemoteWindowOfOneSerializes(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 10, 100)
	th := newThread(t, ThreadConfig{
		Name: "t0", Engine: eng, Memory: m,
		Stream:      NewSliceStream(remoteAccs(10)),
		WindowLocal: 8, WindowRemote: 1,
	})
	th.Start(0)
	eng.Run()
	if !th.Done {
		t.Fatal("thread did not finish")
	}
	if m.maxRemote != 1 {
		t.Errorf("remote concurrency = %d, want 1 (the RMC I/O-unit limit)", m.maxRemote)
	}
	// 10 sequential accesses of 100 each.
	if elapsed(t, th) != 1000 {
		t.Errorf("elapsed = %d, want 1000", elapsed(t, th))
	}
	if th.Issued != 10 {
		t.Errorf("Issued = %d", th.Issued)
	}
	if th.Latency.Mean() != 100 {
		t.Errorf("mean latency = %v, want 100", th.Latency.Mean())
	}
}

func TestLocalWindowPipelines(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 100, 1000)
	th := newThread(t, ThreadConfig{
		Engine: eng, Memory: m,
		Stream:      NewSliceStream(localAccs(16)),
		WindowLocal: 8, WindowRemote: 1,
	})
	th.Start(0)
	eng.Run()
	if m.maxLocal != 8 {
		t.Errorf("local concurrency = %d, want 8", m.maxLocal)
	}
	// 16 accesses, 8 at a time, same latency: two waves of 100.
	if elapsed(t, th) != 200 {
		t.Errorf("elapsed = %d, want 200", elapsed(t, th))
	}
}

func TestWindowAblation(t *testing.T) {
	// Widening the remote window (the paper's future-work RMC-as-memory-
	// controller) must speed the same stream up proportionally.
	run := func(window int) sim.Time {
		eng := sim.New()
		m := newFakeMem(eng, 10, 100)
		th := newThread(t, ThreadConfig{
			Engine: eng, Memory: m,
			Stream:      NewSliceStream(remoteAccs(32)),
			WindowLocal: 8, WindowRemote: window,
		})
		th.Start(0)
		eng.Run()
		return elapsed(t, th)
	}
	if t1, t8 := run(1), run(8); t8*8 != t1 {
		t.Errorf("window 8 time %d vs window 1 time %d: want exactly 8x", t8, t1)
	}
}

func TestMixedStreamRespectsPerClassWindows(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 10, 100)
	var accs []Access
	accs = append(accs, localAccs(8)...)
	accs = append(accs, remoteAccs(4)...)
	accs = append(accs, localAccs(8)...)
	th := newThread(t, ThreadConfig{
		Engine: eng, Memory: m,
		Stream:      NewSliceStream(accs),
		WindowLocal: 8, WindowRemote: 1,
	})
	th.Start(0)
	eng.Run()
	if m.maxRemote != 1 {
		t.Errorf("remote concurrency = %d, want 1", m.maxRemote)
	}
	if !th.Done || th.Issued != 20 {
		t.Errorf("issued %d of 20", th.Issued)
	}
}

func TestOnDoneAndStartOffset(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 10, 100)
	var doneAt sim.Time
	th := newThread(t, ThreadConfig{
		Engine: eng, Memory: m,
		Stream:      NewSliceStream(remoteAccs(2)),
		WindowLocal: 8, WindowRemote: 1,
		OnDone: func(_ *Thread, t sim.Time) { doneAt = t },
	})
	th.Start(50)
	eng.Run()
	if doneAt != 250 {
		t.Errorf("OnDone at %d, want 250", doneAt)
	}
	if elapsed(t, th) != 200 {
		t.Errorf("Elapsed = %d, want 200 (excludes start offset)", elapsed(t, th))
	}
}

func TestEmptyStream(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 10, 100)
	th := newThread(t, ThreadConfig{
		Engine: eng, Memory: m,
		Stream:      NewSliceStream(nil),
		WindowLocal: 1, WindowRemote: 1,
	})
	th.Start(0)
	eng.Run()
	if !th.Done || elapsed(t, th) != 0 {
		t.Error("empty stream should finish immediately")
	}
}

func TestDoubleStartPanics(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 10, 100)
	th := newThread(t, ThreadConfig{
		Engine: eng, Memory: m, Stream: NewSliceStream(nil),
		WindowLocal: 1, WindowRemote: 1,
	})
	th.Start(0)
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	th.Start(1)
}

func TestFuncStream(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 10, 100)
	n := 0
	stream := FuncStream(func() (Access, bool) {
		if n >= 3 {
			return Access{}, false
		}
		n++
		return Access{Addr: addr.Phys(uint64(n) * 64)}, true
	})
	th := newThread(t, ThreadConfig{
		Engine: eng, Memory: m, Stream: stream,
		WindowLocal: 2, WindowRemote: 1,
	})
	th.Start(0)
	eng.Run()
	if th.Issued != 3 {
		t.Errorf("Issued = %d, want 3", th.Issued)
	}
}

func TestExpressFlagPropagates(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 10, 100)
	th := newThread(t, ThreadConfig{
		Engine: eng, Memory: m, Stream: NewSliceStream(remoteAccs(1)),
		WindowLocal: 1, WindowRemote: 1, Express: true,
	})
	th.Start(0)
	eng.Run()
	if !m.lastExpress {
		t.Error("express flag not passed to the memory system")
	}
}

func TestCoreBinding(t *testing.T) {
	eng := sim.New()
	m := newFakeMem(eng, 10, 100)
	th := newThread(t, ThreadConfig{
		Engine: eng, Memory: m, Stream: NewSliceStream(localAccs(4)),
		Core: 5, WindowLocal: 1, WindowRemote: 1,
	})
	th.Start(0)
	eng.Run()
	if m.perCoreIssues[5] != 4 {
		t.Errorf("core 5 issued %d, want 4", m.perCoreIssues[5])
	}
}

func TestRunningMoments(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		mean, max float64
	}{
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9}, 5, 9},
		// Picosecond latencies on which Welford's update and sum/n
		// (1.8219633333333333e+06) differ in the last place: every
		// pinned simulation digest prints the Welford value.
		{[]float64{2395853, 1742651, 1790370, 2166489, 1596110, 1240307}, 1.8219633333333335e+06, 2395853},
	} {
		var r Running
		for _, x := range c.xs {
			r.Observe(x)
		}
		if r.N() != uint64(len(c.xs)) || r.Mean() != c.mean || r.Max() != c.max {
			t.Errorf("%v: N, Mean, Max = %d, %v, %v; want %d, %v, %v",
				c.xs, r.N(), r.Mean(), r.Max(), len(c.xs), c.mean, c.max)
		}
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Max() != 0 {
		t.Error("empty Running should report zeros")
	}
	r.Observe(-3)
	if r.Mean() != -3 || r.Max() != -3 {
		t.Error("single-sample mean/max wrong")
	}
}

func TestRunningMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		n := 0
		min := math.Inf(1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Keep magnitudes sane: Welford is not robust to values near
			// the float64 overflow threshold, and no simulated latency is.
			x = math.Mod(x, 1e9)
			r.Observe(x)
			min = math.Min(min, x)
			n++
		}
		if n == 0 {
			return true
		}
		return r.Mean() >= min-1e-9 && r.Mean() <= r.Max()+1e-9 && r.N() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
