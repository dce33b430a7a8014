package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/memmodel"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// span is one traced call. A span with Count > 0 folds the per-access
// calls of one kind made under its parent — recording each of millions
// of accesses would cost more than the accesses — and carries the
// number of accesses and their summed duration instead of start and end.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns,omitempty"`
	EndNS   int64  `json:"end_ns,omitempty"`
	Count   uint64 `json:"count,omitempty"`
	TotalNS int64  `json:"total_ns,omitempty"`
}

func (s span) durationNS() int64 {
	if s.Count > 0 {
		return s.TotalNS
	}
	return s.EndNS - s.StartNS
}

// tracer keeps the spans of one op in memory. Its methods are no-ops on
// a nil tracer, which is how untraced ops run.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	// Per-access timers handed to decorators since the innermost open
	// span began; each decorator is used by one simulated thread only,
	// so each timer is touched by one goroutine at a time.
	issue, next, price []*timer
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(t.origin).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// endThreads ends a span that ran simulated threads and folds their
// decorators' timers into child spans.
func (t *tracer) endThreads(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.fold(id, "cpu.issue", t.issue)
	t.fold(id, "workloads.stream", t.next)
	t.issue, t.next = nil, nil
}

// endAccessor ends a span that priced through a wrapped accessor.
func (t *tracer) endAccessor(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.fold(id, "memmodel.price", t.price)
	t.price = nil
}

func (t *tracer) fold(parent int, name string, timers []*timer) {
	var s span
	for _, tm := range timers {
		s.Count += tm.n
		s.TotalNS += tm.ns
	}
	if s.Count == 0 {
		return
	}
	s.ID, s.Parent, s.Name = len(t.spans)+1, parent, name
	t.spans = append(t.spans, s)
}

// timer accumulates the accesses one decorator saw and the time spent
// on them.
type timer struct {
	n  uint64
	ns int64
}

func (tm *timer) add(start time.Time, accesses int) {
	tm.ns += time.Since(start).Nanoseconds()
	tm.n += uint64(accesses)
}

// wrapThread decorates a thread's stream and memory system with timers.
func (t *tracer) wrapThread(s cpu.Stream, m cpu.MemorySystem) (cpu.Stream, cpu.MemorySystem) {
	if t == nil {
		return s, m
	}
	ts := &timedStream{inner: s}
	tm := &timedMemory{inner: m}
	t.next = append(t.next, &ts.timer)
	t.issue = append(t.issue, &tm.timer)
	return ts, tm
}

type timedStream struct {
	inner cpu.Stream
	timer
}

func (s *timedStream) Next() (cpu.Access, bool) {
	start := time.Now()
	a, ok := s.inner.Next()
	s.add(start, 1)
	return a, ok
}

type timedMemory struct {
	inner cpu.MemorySystem
	timer
}

func (m *timedMemory) Issue(now sim.Time, core int, a cpu.Access, express bool, done func(sim.Time)) {
	start := time.Now()
	m.inner.Issue(now, core, a, express, done)
	m.add(start, 1)
}

func (m *timedMemory) IsRemote(a addr.Phys) bool { return m.inner.IsRemote(a) }

// wrapAccessor decorates a pricing model with a timer. The wrapper
// prices whole batches through memmodel.Batch, so the inner model keeps
// its devirtualized fast path.
func (t *tracer) wrapAccessor(acc memmodel.Accessor) memmodel.Accessor {
	if t == nil {
		return acc
	}
	ta := &timedAccessor{inner: acc}
	t.price = append(t.price, &ta.timer)
	return ta
}

type timedAccessor struct {
	inner memmodel.Accessor
	timer
}

func (a *timedAccessor) Access(addr uint64, write bool) params.Duration {
	start := time.Now()
	d := a.inner.Access(addr, write)
	a.add(start, 1)
	return d
}

func (a *timedAccessor) AccessBatch(ops []memmodel.AccessOp) params.Duration {
	start := time.Now()
	d := memmodel.Batch(a.inner, ops)
	a.add(start, len(ops))
	return d
}

func (a *timedAccessor) Name() string { return a.inner.Name() }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// total sums the durations of the spans with a name.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.durationNS()
		}
	}
	return float64(ns) / 1e9
}

// self sums the self time of the spans with a name: each span's duration
// minus the part its child spans cover.
func (t *tracer) self(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		ns += s.durationNS()
		for _, c := range t.spans {
			if c.Parent == s.ID {
				ns -= c.durationNS()
			}
		}
	}
	return float64(ns) / 1e9
}

// count sums the accesses folded into the spans with a name.
func (t *tracer) count(name string) float64 {
	var n uint64
	for _, s := range t.spans {
		if s.Name == name {
			n += s.Count
		}
	}
	return float64(n)
}

// layerMetrics derives the per-layer metrics of a traced op from its
// spans, its metrics snapshot, the engines' public counters and the Go
// runtime. Layers an op does not use report 0.
func layerMetrics(o *outcome, t *tracer, ms *runtime.MemStats) map[string]float64 {
	m := map[string]float64{
		"core.new_system_s":   t.total("core.new_system"),
		"core.reserve_s":      t.total("core.reserve"),
		"cpu.launch_s":        t.total("cpu.launch"),
		"sim.run_s":           t.total("sim.run"),
		"sim.engine_self_s":   t.self("sim.run"),
		"cpu.issue_s":         t.total("cpu.issue"),
		"workloads.stream_s":  t.total("workloads.stream"),
		"core.bulk_s":         t.total("core.bulk"),
		"metrics.snapshot_s":  t.total("metrics.snapshot"),
		"btree.build_s":       t.total("btree.build"),
		"btree.search_self_s": t.self("btree.search"),
		"memmodel.price_s":    t.total("memmodel.price"),
		"workloads.kernel_s":  t.total("workloads.kernel"),
		"go.gc_cycles":        float64(ms.NumGC),
		"go.gc_pause_ms":      float64(ms.PauseTotalNs) / 1e6,
		"go.heap_alloc_mb":    float64(ms.HeapAlloc) / (1 << 20),
	}
	m["cpu.ns_per_issue"] = ratio(m["cpu.issue_s"]*1e9, t.count("cpu.issue"))
	m["memmodel.ns_per_access"] = ratio(m["memmodel.price_s"]*1e9, t.count("memmodel.price"))
	var events, most, barriers, elided uint64
	shards := 1
	if o.sys != nil {
		set := o.sys.Set()
		shards, barriers, elided = set.Shards(), set.Barriers, set.Elided
		for i := 0; i < shards; i++ {
			n := set.Engine(i).Processed
			events += n
			most = max(most, n)
		}
	}
	m["sim.barriers"] = float64(barriers)
	m["sim.windows_elided"] = float64(elided)
	m["sim.events"] = float64(events)
	m["sim.events_per_access"] = ratio(float64(events), float64(o.accesses))
	m["sim.ns_per_event"] = ratio(m["sim.run_s"]*1e9, float64(events))
	m["sim.shard_imbalance"] = ratio(float64(most)*float64(shards), float64(events))
	var snap metrics.Snapshot
	if o.snap != nil {
		snap = *o.snap
	}
	snapshotMetrics(m, snap, o.accesses)
	return m
}

// snapshotMetrics reads the deterministic counters of the micro layers.
func snapshotMetrics(m map[string]float64, s metrics.Snapshot, accesses uint64) {
	busiest := func(name string) float64 {
		var most float64
		if f := s.Family(name); f != nil {
			for _, sm := range f.Samples {
				most = max(most, sm.Value)
			}
		}
		return most
	}
	requests, retries := s.Total(metrics.FamRMCRequests), s.Total(metrics.FamRMCRetries)
	m["rmc.requests"] = requests
	m["rmc.retries"] = retries
	m["rmc.admit_ratio"] = ratio(requests, requests+retries)
	m["rmc.client_util"] = busiest(metrics.FamRMCClientUtil)
	m["rmc.server_util"] = busiest(metrics.FamRMCServerUtil)
	m["rmc.bulk_bursts"] = s.Total(metrics.FamRMCBulkBursts)
	m["rmc.bulk_frames"] = s.Total(metrics.FamRMCBulkFrames)
	m["mesh.hops_per_access"] = ratio(s.Total(metrics.FamMeshHops), float64(accesses))
	m["mesh.link_frames"] = s.Total(metrics.FamMeshLinkFrames)
	m["faults.injected"] = s.Total(metrics.FamFaultDrops) + s.Total(metrics.FamFaultCorruptions) + s.Total(metrics.FamFaultDelays)
	m["rmc.retransmits"] = s.Total(metrics.FamRMCRetransmits)
	m["rmc.abandoned"] = s.Total(metrics.FamRMCAbandoned)
	m["mesh.reroutes"] = s.Total(metrics.FamMeshReroutes)
	m["mesh.detour_hops"] = s.Total(metrics.FamMeshDetourHops)
	m["hnc.crc_failures"] = s.Total(metrics.FamHNCCRCFailures)
	m["cache.hit_ratio"] = ratio(s.Total(metrics.FamCacheHits), s.Total(metrics.FamCacheAccesses))
	m["cache.writebacks"] = s.Total(metrics.FamCacheWritebacks)
	m["dram.row_hit_ratio"] = ratio(s.Total(metrics.FamDRAMRowHits), s.Total(metrics.FamDRAMReads)+s.Total(metrics.FamDRAMWrites))
}

// ratio is num/den, or 0 for a layer that did no work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
