// Command ncdsm-perf is the tracked perf-regression harness. It runs
// the benchmarks the hot-path work is judged by — engine event churn, a
// full RMC remote-line round trip, a corner-to-corner mesh traversal, the
// sharded engine's barrier and exchange drain, the faulted Figure 7
// sweep with its metrics merge, building a 32x32 system and snapshotting
// its metrics, rendering that snapshot as JSON and Prometheus text, one
// node's cache tags under sparse whole-fabric traffic,
// a 2M-key b-tree bulk load, and the macro layer's batched access
// engine (the Figure 9 search hot loop and the LineCached and Swap
// batch pricing loops) — and
// either writes the results to a baseline file (BENCH_sim.json) or checks
// them against a committed baseline.
//
//	ncdsm-perf -out BENCH_sim.json          # refresh the baseline
//	ncdsm-perf -check BENCH_sim.json        # gate: fail on regression
//	ncdsm-perf -check BENCH_sim.json -tolerance 0.3
//	ncdsm-perf -scale BENCH_scale.json      # GOMAXPROCS scaling sweep
//
// The scaling sweep prints, next to each speedup, the serial share of
// the sharded run and its straggler ratio, from ShardSet.Phases.
//
// The check fails when any benchmark's ns/op regresses more than the
// tolerance (default 20%) or its allocs/op or bytes/op grows. Because
// ns/op is host-dependent, every run also times a fixed pure-CPU
// calibration loop; at check time the baseline's ns/op figures are
// rescaled by the calibration ratio, so a uniformly slower CI machine
// does not read as a regression while a genuinely slower hot path still
// does. Allocation counts and bytes need no such scaling — they are
// machine-independent and are the strictest part of the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/btree"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/ht"
	"repro/internal/memmodel"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/rmc"
	"repro/internal/sim"
	"repro/internal/swap"

	ncdsm "repro"
)

// faultSpec arms the Figure 7 sweep with the same deterministic plan the
// fault-injection tests use, so the harness prices the recovery path too.
const faultSpec = "seed=7,drop=0.01,corrupt=0.002,delayp=0.02,delay=300ns,down=2-6@0:50us,storm=6@20us:40us,stall=2@10us:60us"

// Result is one benchmark's measurement in BENCH_sim.json. Tolerance,
// when nonzero, overrides the global -tolerance for that entry: the
// multi-worker sharded benchmarks hand events between goroutines, so
// their wall time swings with the host scheduler far more than the
// single-threaded hot loops do, and they carry a wider ns/op band. The
// allocs/op and bytes/op gates are never widened — they are
// machine-independent and are the part that actually guards the
// zero-alloc steady-state contract.
type Result struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	Tolerance    float64 `json:"tolerance,omitempty"`
}

// Baseline is the BENCH_sim.json document.
type Baseline struct {
	Note       string            `json:"note"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "", "write measurements to this baseline file")
		check     = flag.String("check", "", "compare measurements against this baseline file")
		scaleOut  = flag.String("scale", "", "write a GOMAXPROCS scaling sweep of the sharded benchmark to this file")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression in -check mode")
	)
	testing.Init()
	flag.Parse()
	modes := 0
	for _, m := range []string{*out, *check, *scaleOut} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "ncdsm-perf: exactly one of -out, -check, or -scale is required")
		os.Exit(2)
	}

	if *scaleOut != "" {
		doc, err := json.MarshalIndent(measureScale(), "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*scaleOut, append(doc, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("ncdsm-perf: wrote %s\n", *scaleOut)
		return
	}

	cur := measure()
	if *out != "" {
		doc, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("ncdsm-perf: wrote %s\n", *out)
		return
	}

	raw, err := os.ReadFile(*check)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(err)
	}
	if code := compare(base, cur, *tolerance); code != 0 {
		os.Exit(code)
	}
	fmt.Println("ncdsm-perf: PASS (within tolerance of baseline)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ncdsm-perf:", err)
	os.Exit(1)
}

// bench runs one benchmark under the given go-test benchtime ("1s",
// "100x", ...) and converts it to a Result. It keeps the fastest of
// `rounds` runs: ns/op noise is one-sided (scheduler preemption and GC
// only ever add time), so the minimum is the stablest estimator —
// essential for the sharded benchmarks, whose worker handoffs make a
// single run's wall time swing hard on loaded hosts. Allocs/op and
// bytes/op each take their own minimum too: testing's ReadMemStats can
// make the runtime start an OS thread, whose bytes land in any round.
func bench(benchtime string, rounds int, events func(r testing.BenchmarkResult) float64, fn func(*testing.B)) Result {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fatal(err)
	}
	var best Result
	for i := 0; i < rounds; i++ {
		r := testing.Benchmark(fn)
		res := Result{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
		if events != nil && res.NsPerOp > 0 {
			res.EventsPerSec = events(r) * 1e9 / float64(r.T.Nanoseconds())
		}
		if i == 0 {
			best = res
			continue
		}
		if res.NsPerOp < best.NsPerOp {
			best.NsPerOp, best.EventsPerSec = res.NsPerOp, res.EventsPerSec
		}
		best.AllocsPerOp = min(best.AllocsPerOp, res.AllocsPerOp)
		best.BytesPerOp = min(best.BytesPerOp, res.BytesPerOp)
	}
	return best
}

// measure runs the full suite and prints each result as it lands.
func measure() Baseline {
	doc := Baseline{
		Note:       "regenerate with `make bench`; checked in CI with `ncdsm-perf -check` (calibration-scaled ns/op, strict allocs/op)",
		Benchmarks: map[string]Result{},
	}
	run := func(name, benchtime string, rounds int, tol float64, events func(testing.BenchmarkResult) float64, fn func(*testing.B)) {
		r := bench(benchtime, rounds, events, fn)
		r.Tolerance = tol
		doc.Benchmarks[name] = r
		fmt.Printf("%-24s %12.1f ns/op %8.1f allocs/op %10.0f B/op", name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		if r.EventsPerSec > 0 {
			fmt.Printf(" %14.0f events/sec", r.EventsPerSec)
		}
		fmt.Println()
	}

	run("calibration", "1s", 3, 0, nil, benchCalibration)
	run("engine_schedule_run", "1s", 3, 0, func(r testing.BenchmarkResult) float64 { return float64(r.N) }, benchEngineChurn)
	run("rmc_round_trip", "1s", 3, 0, nil, benchRemoteLineRead)
	run("mesh_deliver_32x32", "1s", 3, 0, nil, benchMeshDeliver32x32)
	run("bulk_round_trip", "500ms", 3, 0, nil, benchBulkRoundTrip)
	run("bulk_copy_4k", "500ms", 3, 0, nil, benchBulkCopy)
	run("fig7_faulted_sweep", "3x", 5, 0.35, nil, benchFig7Faulted)
	run("system_build_32x32", "3x", 5, 0.50, nil, benchSystemBuild32x32)
	run("metrics_render_32x32", "10x", 5, 0.35, nil, benchMetricsRender32x32)
	run("cache_sparse_fill", "500ms", 3, 0, nil, benchCacheSparseFill)
	run("sharded_barrier_overhead", "200ms", 5, 0.35, nil, benchShardedBarrierOverhead)
	run("exchange_drain", "300x", 5, 0, nil, benchExchangeDrain)
	run("sharded_16x16_events_per_sec", "200x", 8, 0.50,
		func(testing.BenchmarkResult) float64 { return shardedEvents }, benchSharded16x16)
	run("fig9_search_hot_loop", "500ms", 3, 0, nil, benchFig9SearchHotLoop)
	run("btree_bulkload_2m", "5x", 3, 0, nil, benchBtreeBulkLoad2M)
	run("linecached_batch_4k", "500ms", 3, 0, nil, benchLineCachedBatch)
	run("swap_batch_4k", "500ms", 3, 0, nil, benchSwapBatch)
	return doc
}

// ScalePoint is one GOMAXPROCS setting's measurement in the scaling
// sweep: the paper-scale sharded benchmark's throughput at that worker
// width, its speedup over the single-proc run of the same sweep, and
// why the speedup is what it is — the serial share of the run (plan plus
// drain, over run time: Amdahl's bound on what more cores can buy) and
// the straggler ratio (the busiest shard's window time over the mean).
type ScalePoint struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	Speedup      float64 `json:"speedup_vs_1"`
	SerialShare  float64 `json:"serial_share"`
	Straggler    float64 `json:"straggler"`
}

// ScaleDoc is the BENCH_scale.json document. Unlike BENCH_sim.json it
// is not a CI gate — parallel speedup depends on the runner's core
// count and load — but it records how the sharded engine's throughput
// scales with worker width on the machine that generated it.
type ScaleDoc struct {
	Note      string       `json:"note"`
	Benchmark string       `json:"benchmark"`
	NumCPU    int          `json:"num_cpu"`
	Points    []ScalePoint `json:"points"`
}

// measureScale sweeps GOMAXPROCS over the 16x16/8-shard benchmark. The
// shard count stays fixed — the partition is part of the deterministic
// schedule — so the sweep isolates how much of the 8-way decomposition
// the host can actually run concurrently.
func measureScale() ScaleDoc {
	doc := ScaleDoc{
		Note:      "regenerate with `make scale-bench`; informational (host-dependent), not a CI gate",
		Benchmark: "sharded_16x16_events_per_sec",
		NumCPU:    runtime.NumCPU(),
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var base float64
	for _, procs := range []int{1, 2, 4, 8} {
		if procs > runtime.NumCPU() && procs != 1 {
			break // oversubscribed widths only measure scheduler thrash
		}
		runtime.GOMAXPROCS(procs)
		r := bench("200x", 8, func(testing.BenchmarkResult) float64 { return shardedEvents }, benchSharded16x16)
		pt := ScalePoint{GOMAXPROCS: procs, NsPerOp: r.NsPerOp, EventsPerSec: r.EventsPerSec}
		if procs == 1 {
			base = r.NsPerOp
		}
		if base > 0 && r.NsPerOp > 0 {
			pt.Speedup = base / r.NsPerOp
		}
		pt.SerialShare, pt.Straggler = phaseRatios(shardedPhases)
		doc.Points = append(doc.Points, pt)
		fmt.Printf("GOMAXPROCS=%-2d %12.1f ns/op %14.0f events/sec %6.2fx  serial %5.1f%%  straggler %.2f\n",
			procs, pt.NsPerOp, pt.EventsPerSec, pt.Speedup, 100*pt.SerialShare, pt.Straggler)
	}
	return doc
}

// compare applies the gate. ns/op regressions are judged against the
// calibration-rescaled baseline; allocs/op and bytes/op must not grow
// past their slack.
func compare(base, cur Baseline, tolerance float64) int {
	scale := 1.0
	bc, okb := base.Benchmarks["calibration"]
	cc, okc := cur.Benchmarks["calibration"]
	if okb && okc && bc.NsPerOp > 0 {
		scale = cc.NsPerOp / bc.NsPerOp
		fmt.Printf("calibration: host is %.2fx the baseline machine's ns/op\n", scale)
	}
	code := 0
	for name, b := range base.Benchmarks {
		if name == "calibration" {
			continue
		}
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Printf("FAIL %s: benchmark missing from current run\n", name)
			code = 1
			continue
		}
		tol := tolerance
		if b.Tolerance > tol {
			tol = b.Tolerance
		}
		allowed := b.NsPerOp * scale * (1 + tol)
		// Zero-alloc benchmarks stay strictly zero; the macro sweep gets
		// 1% + 64 allocs (4 KiB) slack for runtime-internal allocation
		// jitter.
		allowedAllocs, allowedBytes := b.AllocsPerOp*1.01, b.BytesPerOp*1.01
		if b.AllocsPerOp > 0 {
			allowedAllocs += 64
		}
		if b.BytesPerOp > 0 {
			allowedBytes += 4096
		}
		switch {
		case c.AllocsPerOp > allowedAllocs:
			fmt.Printf("FAIL %s: allocs/op %.1f > allowed %.1f (baseline %.1f)\n", name, c.AllocsPerOp, allowedAllocs, b.AllocsPerOp)
			code = 1
		case c.BytesPerOp > allowedBytes:
			fmt.Printf("FAIL %s: B/op %.0f > allowed %.0f (baseline %.0f)\n", name, c.BytesPerOp, allowedBytes, b.BytesPerOp)
			code = 1
		case c.NsPerOp > allowed:
			fmt.Printf("FAIL %s: %.1f ns/op > %.1f allowed (baseline %.1f x %.2f cal x %.0f%% tolerance)\n",
				name, c.NsPerOp, allowed, b.NsPerOp, scale, 100*(1+tol))
			code = 1
		default:
			fmt.Printf("ok   %s: %.1f ns/op (allowed %.1f), %.1f allocs/op, %.0f B/op\n", name, c.NsPerOp, allowed, c.AllocsPerOp, c.BytesPerOp)
		}
	}
	return code
}

// benchCalibration is a fixed pure-CPU loop (an LCG-fed sum over a small
// buffer) whose ns/op depends only on the host, never on this codebase's
// hot paths. It anchors cross-machine ns/op comparisons.
func benchCalibration(b *testing.B) {
	var buf [4096]byte
	state := uint64(0x9E3779B97F4A7C15)
	for i := range buf {
		state = state*6364136223846793005 + 1442695040888963407
		buf[i] = byte(state >> 56)
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range buf {
			sink = sink*31 + uint64(v)
		}
	}
	if sink == 42 {
		b.Fatal("unreachable; keeps sink live")
	}
}

// benchEngineChurn is the headline engine microbenchmark: a
// self-sustaining event churn with a bounded horizon, the pattern every
// substrate's timed path reduces to. One op = one executed event, so
// events/sec falls straight out.
func benchEngineChurn(b *testing.B) {
	e := sim.New()
	remaining := b.N
	var step func()
	step = func() {
		if remaining > 0 {
			remaining--
			e.After(100, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(0, step)
	e.Run()
}

// benchRemoteLineRead is one full timed remote line access through the
// public API per op: each op reads the next cache line of a 64 MiB
// reservation on node 2, wrapping at its end, so every op misses the
// node's caches and makes one RMC round trip (request frame, server
// memory access, reply frame).
func benchRemoteLineRead(b *testing.B) {
	const reserved = 64 << 20
	sys, err := ncdsm.New(ncdsm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		b.Fatal(err)
	}
	ptr, err := region.GrowFrom(2, reserved)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ptr + ncdsm.Pointer(uint64(i)*params.CacheLineSize%reserved)
		if err := region.Access(ncdsm.AccessRequest{Now: sys.Now(), Pointer: p}); err != nil {
			b.Fatal(err)
		}
		sys.Run()
	}
}

// benchMeshDeliver32x32 is the fabric's per-hop cost: one clean frame
// corner to corner across the 32x32 mesh (62 hops) per op, on idle
// links. It walks the dense link table and must not allocate.
func benchMeshDeliver32x32(b *testing.B) {
	topo, err := mesh.NewTopology(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	f := mesh.NewFabric(metrics.NewRegistry(), topo, params.Default(), nil)
	src, dst := topo.NodeAt(0, 0), topo.NodeAt(31, 31)
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := f.DeliverOutcome(now, src, dst, 72); out.Hops != 62 {
			b.Fatalf("corner-to-corner took %d hops", out.Hops)
		}
		now += 1_000_000 // 1us: every link idle again
	}
}

// benchExchangeDrain prices the sharded engine's serial barrier step:
// one ExchangeSet.Drain of a fixed intent batch on a 16x16 mesh split
// over 2 shards — every node's RMC has one remote line read to its
// diametric partner recorded (256 frames, ~16 hops each) — replayed
// through the fabric in canonical order, each delivery posted to its
// destination engine. Only the drain is timed: issuing the reads, the
// shards pushing the posted deliveries onto their heaps when set.Run
// opens their windows, and finishing the round trips run off the clock.
// The drain must not allocate.
func benchExchangeDrain(b *testing.B) {
	p := params.Default()
	p.MeshWidth, p.MeshHeight = 16, 16
	p.Shards = 2
	c, err := cluster.New(p)
	if err != nil {
		b.Fatal(err)
	}
	set := c.Set()
	topo := c.Topology()
	type read struct {
		r   *rmc.RMC
		pkt ht.Packet
	}
	reads := make([]read, 0, topo.Nodes())
	for id := 1; id <= topo.Nodes(); id++ {
		x, y := topo.Coord(addr.NodeID(id))
		partner := topo.NodeAt(topo.W-1-x, topo.H-1-y)
		reads = append(reads, read{
			r:   c.MustNode(addr.NodeID(id)).RMC(),
			pkt: ht.Packet{Cmd: ht.CmdRdSized, SrcTag: uint16(id), Addr: addr.Phys(0x100000 + uint64(id)*64).WithNode(partner), Count: 64},
		})
	}
	done := func(_ sim.Time, _ ht.Packet, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	record := func() {
		now := set.Now()
		for _, rd := range reads {
			if err := rd.r.Request(now, rd.pkt, false, done); err != nil {
				b.Fatal(err)
			}
		}
		// Admission and launch only: every send stops at its shard's
		// intent buffer, so each engine runs dry.
		for i := 0; i < set.Shards(); i++ {
			set.Engine(i).Run()
		}
	}
	drain := c.Exchanges().Drain
	for i := 0; i < 8; i++ {
		record() // warm the pools and the exchange slices
		drain(sim.MaxTime)
		set.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		record()
		b.StartTimer()
		drain(sim.MaxTime)
		b.StopTimer()
		set.Run()
		b.StartTimer()
	}
}

// bulkRig builds the 1×n-mesh cluster on one shard, the minimal
// machine a bulk burst or DMA copy needs, and returns node 1's RMC.
func bulkRig(b *testing.B, nodes int) (*sim.ShardSet, *rmc.RMC) {
	p := params.Default()
	p.MeshWidth, p.MeshHeight = nodes, 1
	c, err := cluster.New(p)
	if err != nil {
		b.Fatal(err)
	}
	return c.Set(), c.MustNode(1).RMC()
}

// benchBulkRoundTrip is the bulk data plane's hot path: one 64-line
// (4 KiB) scatter-gather read burst through the full RMC machinery —
// doorbell, descriptor, pipelined data frames, reassembly — per op.
// The continuation pools pin it at 0 allocs/op.
func benchBulkRoundTrip(b *testing.B) {
	set, client := bulkRig(b, 2)
	sink := make([]byte, 64*64)
	spans := []rmc.Span{{Start: addr.Phys(0x30000000).WithNode(2), Lines: 64}}
	req := rmc.BulkRequest{
		Kind: rmc.BulkRead, Spans: spans, Data: sink,
		Done: func(_ sim.Time, err error) {
			if err != nil {
				b.Fatal(err)
			}
		},
	}
	issue := func() {
		if err := client.RequestBulk(set.Now(), req); err != nil {
			b.Fatal(err)
		}
		set.Run()
	}
	for i := 0; i < 16; i++ {
		issue() // warm the pools
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		issue()
	}
}

// benchBulkCopy is one 4 KiB region-to-region DMA per op: node 1 rings
// node 2's doorbell, node 2 streams write frames straight to node 3.
func benchBulkCopy(b *testing.B) {
	set, client := bulkRig(b, 3)
	spans := []rmc.Span{{Start: addr.Phys(0x10000000).WithNode(2), Lines: 64}}
	req := rmc.BulkRequest{
		Kind: rmc.BulkCopy, Spans: spans,
		CopyDst: addr.Phys(0x20000000).WithNode(3),
		Done: func(_ sim.Time, err error) {
			if err != nil {
				b.Fatal(err)
			}
		},
	}
	issue := func() {
		if err := client.RequestBulk(set.Now(), req); err != nil {
			b.Fatal(err)
		}
		set.Run()
	}
	for i := 0; i < 16; i++ {
		issue()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		issue()
	}
}

// benchOps builds a deterministic mixed op stream (LCG-fed, ~25%
// writes) over the given byte span for the batch benchmarks.
func benchOps(n int, span uint64) []memmodel.AccessOp {
	ops := make([]memmodel.AccessOp, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range ops {
		state = state*6364136223846793005 + 1442695040888963407
		ops[i] = memmodel.AccessOp{Addr: state % span, Write: state>>62 == 0}
	}
	return ops
}

// benchFig9SearchHotLoop is the Figure 9 sweep's inner loop: one
// batched b-tree search per op against the remote-swap configuration at
// the paper's optimal fanout. This is the path the paper-scale run
// spends its time in; it must stay allocation-free.
func benchFig9SearchHotLoop(b *testing.B) {
	tr, err := btree.New(168)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, 200_000)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	if err := tr.BulkLoad(keys); err != nil {
		b.Fatal(err)
	}
	p := params.Default()
	sw, err := memmodel.NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, 256)
	if err != nil {
		b.Fatal(err)
	}
	var bt memmodel.Batcher
	bt.Grow(256)
	tr.SearchBatch(0, sw, &bt) // warm
	var key uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key += 7919
		tr.SearchBatch(key%600_000, sw, &bt)
	}
}

// benchBtreeBulkLoad2M is one tree population of the benchmark's
// btree_swap workload: a bulk load of 2M ascending keys at fanout 8,
// the costliest fanout it builds. The keys are read in place, so its
// bytes/op is the node slabs and arenas alone.
func benchBtreeBulkLoad2M(b *testing.B) {
	keys := make([]uint64, 2_000_000)
	for i := range keys {
		keys[i] = uint64(i) * 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := btree.New(8)
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.BulkLoad(keys); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLineCachedBatch prices one 4096-op batch per op through the
// LineCached→Striped composition: a line cache in front of a region's
// multi-donor layout.
func benchLineCachedBatch(b *testing.B) {
	p := params.Default()
	st, err := memmodel.NewStriped(p, []memmodel.Stripe{
		{Start: 0, Size: 32 << 20, Acc: memmodel.Local{P: p}},
		{Start: 32 << 20, Size: 32 << 20, Acc: memmodel.Remote{P: p, Hops: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := memmodel.NewLineCached(st, p, memmodel.DefaultCacheLines)
	if err != nil {
		b.Fatal(err)
	}
	ops := benchOps(4096, 64<<20)
	var sink params.Duration
	sink += memmodel.Batch(c, ops) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += memmodel.Batch(c, ops)
	}
	if sink == 0 {
		b.Fatal("priced nothing")
	}
}

// benchSwapBatch prices one 4096-op batch per op through Swap over its
// page cache — a mix of resident hits, faults, and dirty evictions.
func benchSwapBatch(b *testing.B) {
	p := params.Default()
	sw, err := memmodel.NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, 512)
	if err != nil {
		b.Fatal(err)
	}
	ops := benchOps(4096, 1024*params.PageSize)
	var sink params.Duration
	sink += memmodel.Batch(sw, ops) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += memmodel.Batch(sw, ops)
	}
	if sink == 0 {
		b.Fatal("priced nothing")
	}
}

// benchShardedBarrierOverhead prices one window round of a 4-shard set
// given no bound matrix — worker release, a near-empty window, park,
// barrier — by spacing events two base windows apart, so every one
// opens its own fixed-cadence window. No cluster runs that cadence (each
// plans from its fabric's matrix), but the round's fixed cost is the
// same one every planned window pays; it must stay allocation-free so
// idle shards never pressure the GC.
func benchShardedBarrierOverhead(b *testing.B) {
	w := params.Default().HopLatency
	set := sim.NewShardSet(4, w)
	eng := set.Engine(0)
	remaining := b.N
	var step func()
	step = func() {
		if remaining > 0 {
			remaining--
			eng.After(2*w, step) // past the window limit: next event = next window
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.After(0, step)
	set.Run()
}

// shardedEvents reports the engine events the last benchSharded16x16
// timing loop executed, for the events/sec figure, and shardedPhases
// the host-time phases of that benchmark's shard set.
var (
	shardedEvents float64
	shardedPhases sim.Phases
)

// phaseRatios returns the serial share of a sharded run, (plan +
// drain) / run, and its straggler ratio, max / mean shard busy time.
func phaseRatios(p sim.Phases) (serial, straggler float64) {
	if p.Run > 0 {
		serial = float64(p.Plan+p.Drain) / float64(p.Run)
	}
	var sum, most time.Duration
	for _, b := range p.Busy {
		sum += b
		most = max(most, b)
	}
	if sum > 0 {
		straggler = float64(most) * float64(len(p.Busy)) / float64(sum)
	}
	return serial, straggler
}

// benchSharded16x16 is the paper-scale fabric under the parallel
// engine: a 16x16 mesh (256 RMCs) split 8 ways, every node issuing one
// remote line read to its diametric partner per op. It tracks the
// sharded engine's end-to-end event throughput — windowed execution,
// cross-shard exchange, barrier merge — at 0 allocs/op steady state.
func benchSharded16x16(b *testing.B) {
	p := params.Default()
	p.MeshWidth, p.MeshHeight = 16, 16
	p.Shards = 8
	c, err := cluster.New(p)
	if err != nil {
		b.Fatal(err)
	}
	set := c.Set()
	topo, err := mesh.NewTopology(p.MeshWidth, p.MeshHeight)
	if err != nil {
		b.Fatal(err)
	}
	type probe struct {
		n *cluster.Node
		a addr.Phys
	}
	probes := make([]probe, 0, topo.Nodes())
	for id := 1; id <= topo.Nodes(); id++ {
		x, y := topo.Coord(addr.NodeID(id))
		partner := topo.NodeAt(topo.W-1-x, topo.H-1-y)
		probes = append(probes, probe{
			n: c.MustNode(addr.NodeID(id)),
			a: addr.Phys(0x100000 + uint64(id)*64).WithNode(partner),
		})
	}
	noop := func(sim.Time) {}
	issue := func() {
		now := set.Now()
		for _, pr := range probes {
			pr.n.Issue(now, 0, cpu.Access{Addr: pr.a}, false, noop)
		}
		set.Run()
	}
	processed := func() float64 {
		var n uint64
		for i := 0; i < set.Shards(); i++ {
			n += set.Engine(i).Processed
		}
		return float64(n)
	}
	for i := 0; i < 8; i++ {
		issue() // warm caches, pools, and the exchange slices
	}
	start := processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		issue()
	}
	b.StopTimer()
	shardedEvents = processed() - start
	shardedPhases = set.Phases()
}

// benchFig7Faulted runs the full Figure 7 sweep under an armed fault
// plan — the heaviest tracked workload, covering retransmission, pooled
// frame traffic, and the parallel merge path end to end: like
// RunExperiment, it folds every point's metrics snapshot into a
// metrics.Merged.
func benchFig7Faulted(b *testing.B) {
	plan, err := ncdsm.ParseFaultPlan(faultSpec)
	if err != nil {
		b.Fatal(err)
	}
	o := experiments.DefaultOptions()
	o.Scale = 0.02
	o.Parallel = 1 // serial sweep points: stable wall time for the gate
	o.P.Faults = plan
	gen, err := experiments.Lookup("fig7")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var merged metrics.Merged
		o.Metrics = &merged
		if _, err := gen(o); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSystemBuild32x32 builds the 2-shard 32x32 system and takes one
// metrics snapshot of it: the host work behind the fabric32 benchmark
// workload's setup_s and metrics.snapshot_s, with no simulated access.
func benchSystemBuild32x32(b *testing.B) {
	p := params.Default()
	p.MeshWidth, p.MeshHeight, p.Shards = 32, 32, 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		sys.Registry().Snapshot()
	}
}

// renderedBytes keeps benchMetricsRender32x32's renderings live.
var renderedBytes int

// benchMetricsRender32x32 renders a built 2-shard 32x32 system's
// metrics snapshot through JSON and Prometheus per op: the host work
// behind -metrics on a large mesh and the fabric32 benchmark's digest.
func benchMetricsRender32x32(b *testing.B) {
	p := params.Default()
	p.MeshWidth, p.MeshHeight, p.Shards = 32, 32, 2
	sys, err := core.NewSystem(p)
	if err != nil {
		b.Fatal(err)
	}
	snap := sys.Registry().Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renderedBytes = len(snap.JSON()) + len(snap.Prometheus())
	}
}

// benchCacheSparseFill prices one node's cache tags under whole-fabric
// traffic: per op, a fresh four-socket hierarchy whose socket 0 fills
// 160 distinct random lines of a 1 GiB range — fabric32's load on one
// node, about one line in each set it touches. Its bytes/op is what
// every node of a large mesh pays for tags.
func benchCacheSparseFill(b *testing.B) {
	lines := make([]addr.Phys, 0, 160)
	seen := make(map[addr.Phys]bool, 160)
	state := uint64(0x9E3779B97F4A7C15)
	for len(lines) < cap(lines) {
		state = state*6364136223846793005 + 1442695040888963407
		if a := addr.Phys(state >> 40 << 6); !seen[a] {
			seen[a] = true
			lines = append(lines, a)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := cache.NewHierarchy(4, cache.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range lines {
			if _, err := h.Access(0, a, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}
