// Package cpu models the processor side of the memory path: threads
// bound to cores that issue loads and stores into the node's memory
// system, subject to the outstanding-request windows of the prototype —
// eight in-flight requests against local memory, but only one against
// the RMC-mapped range, because the prototype's RMC is an HT I/O unit
// rather than a true memory controller (paper Section IV-B). That window
// of one is the single most important performance parameter of the
// evaluation; Ablation B in DESIGN.md sweeps it.
package cpu

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/sim"
)

// Access is one memory operation of a thread's instruction stream.
type Access struct {
	Addr  addr.Phys
	Write bool
}

// Stream supplies a thread's access sequence. Implementations must be
// deterministic for reproducible simulations.
type Stream interface {
	// Next returns the next access, or ok=false when the stream ends.
	Next() (Access, bool)
}

// SliceStream replays a fixed access slice.
type SliceStream struct {
	accs []Access
	i    int
}

// NewSliceStream wraps a slice as a Stream.
func NewSliceStream(accs []Access) *SliceStream { return &SliceStream{accs: accs} }

// Next implements Stream.
func (s *SliceStream) Next() (Access, bool) {
	if s.i >= len(s.accs) {
		return Access{}, false
	}
	a := s.accs[s.i]
	s.i++
	return a, true
}

// FuncStream adapts a generator function to a Stream.
type FuncStream func() (Access, bool)

// Next implements Stream.
func (f FuncStream) Next() (Access, bool) { return f() }

// MemorySystem is the node-side interface a thread issues into. The
// node implementation routes by its memory map (local controller vs
// RMC), runs the cache hierarchy, and calls done at the access's
// completion time.
type MemorySystem interface {
	// Issue starts one access by the given core. express requests routing
	// over a dedicated express link where the fabric has one.
	Issue(now sim.Time, core int, a Access, express bool, done func(sim.Time))
	// IsRemote reports whether the address is claimed by the RMC.
	IsRemote(a addr.Phys) bool
}

// Thread drives a Stream through a MemorySystem, keeping at most the
// window's worth of requests in flight. The window is chosen per access:
// remote accesses respect the RMC window, local ones the local window.
type Thread struct {
	Name string

	eng    *sim.Engine
	msys   MemorySystem
	stream Stream
	core   int

	windowLocal  int
	windowRemote int
	express      bool

	inflight   int
	peeked     Access
	havePeeked bool
	started    bool

	// issueRecs is the free list of in-flight issue records: each holds
	// its issue time and a prebound completion callback, so the pump
	// loop issues without allocating a closure per access.
	issueRecs []*issueRec

	// Issued counts accesses completed; Latency aggregates per-access
	// round-trip times in picoseconds.
	Issued  uint64
	Latency Running

	// Done and FinishTime record completion.
	Done       bool
	StartTime  sim.Time
	FinishTime sim.Time

	onDone func(*Thread, sim.Time)
}

// Running accumulates count, mean and max online. The mean is Welford's
// incremental update, which the pinned simulation digests depend on bit
// for bit: it can differ from sum/n in the last place.
type Running struct {
	n         uint64
	mean, max float64
}

// Observe adds one sample.
func (r *Running) Observe(x float64) {
	if r.n == 0 || x > r.max {
		r.max = x
	}
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
}

// N returns the sample count.
func (r *Running) N() uint64 { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Max returns the largest sample (0 with no samples).
func (r *Running) Max() float64 { return r.max }

// ThreadConfig configures a thread.
type ThreadConfig struct {
	Name         string
	Engine       *sim.Engine
	Memory       MemorySystem
	Stream       Stream
	Core         int
	WindowLocal  int
	WindowRemote int
	// Express routes this thread's remote traffic over an express link.
	Express bool
	// OnDone, if set, is called once when the stream drains.
	OnDone func(*Thread, sim.Time)
}

// NewThread validates the configuration and builds a thread.
func NewThread(c ThreadConfig) (*Thread, error) {
	if c.Engine == nil || c.Memory == nil || c.Stream == nil {
		return nil, fmt.Errorf("cpu: incomplete thread config")
	}
	if c.WindowLocal < 1 || c.WindowRemote < 1 {
		return nil, fmt.Errorf("cpu: windows must be >= 1 (local %d, remote %d)", c.WindowLocal, c.WindowRemote)
	}
	return &Thread{
		Name:         c.Name,
		eng:          c.Engine,
		msys:         c.Memory,
		stream:       c.Stream,
		core:         c.Core,
		windowLocal:  c.WindowLocal,
		windowRemote: c.WindowRemote,
		express:      c.Express,
		onDone:       c.OnDone,
	}, nil
}

// Start schedules the thread's first issue at the given time.
func (t *Thread) Start(at sim.Time) {
	if t.started {
		panic("cpu: thread started twice")
	}
	t.started = true
	t.StartTime = at
	t.eng.At(at, t.pump)
}

// peek returns the next access without consuming it.
func (t *Thread) peek() (Access, bool) {
	if !t.havePeeked {
		a, ok := t.stream.Next()
		if !ok {
			return Access{}, false
		}
		t.peeked = a
		t.havePeeked = true
	}
	return t.peeked, true
}

func (t *Thread) windowFor(a Access) int {
	if t.msys.IsRemote(a.Addr) {
		return t.windowRemote
	}
	return t.windowLocal
}

// issueRec tracks one in-flight access. The memory system calls doneFn
// exactly once, so the record recycles unconditionally on completion.
type issueRec struct {
	t       *Thread
	issueAt sim.Time
	doneFn  func(sim.Time)
}

func (t *Thread) getIssueRec() *issueRec {
	if l := len(t.issueRecs); l > 0 {
		rec := t.issueRecs[l-1]
		t.issueRecs = t.issueRecs[:l-1]
		return rec
	}
	rec := &issueRec{t: t}
	rec.doneFn = func(done sim.Time) {
		th := rec.t
		th.inflight--
		th.Issued++
		th.Latency.Observe(float64(done - rec.issueAt))
		th.issueRecs = append(th.issueRecs, rec)
		th.pump()
	}
	return rec
}

// pump issues as many accesses as the window allows.
func (t *Thread) pump() {
	for {
		a, ok := t.peek()
		if !ok {
			if t.inflight == 0 && !t.Done {
				t.finish()
			}
			return
		}
		if t.inflight >= t.windowFor(a) {
			return
		}
		t.havePeeked = false
		t.inflight++
		rec := t.getIssueRec()
		rec.issueAt = t.eng.Now()
		t.msys.Issue(rec.issueAt, t.core, a, t.express, rec.doneFn)
	}
}

func (t *Thread) finish() {
	t.Done = true
	t.FinishTime = t.eng.Now()
	if t.onDone != nil {
		t.onDone(t, t.FinishTime)
	}
}
