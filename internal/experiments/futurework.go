package experiments

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// AblationPrefetch evaluates the paper's named future work: a
// sequential prefetcher in front of the RMC. A single thread streams
// sequentially over remote memory (the pattern blackscholes-class
// applications produce); sweeping the prefetch depth shows the per-line
// cost collapsing from the full remote round trip toward the local
// figure, while the random benchmark is unaffected (streams only).
func AblationPrefetch(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("ablationD", "Sequential prefetching (the paper's future work)",
		"prefetch depth (lines ahead)", "time per line (µs)")
	seq := fig.AddSeries("sequential stream over remote memory")
	rnd := fig.AddSeries("random accesses (unaffected)")
	localRef := fig.AddSeries("local memory reference")

	lines := o.scaled(40000, 800)
	depths := []int{0, 1, 2, 4, 8}
	// Point 2i runs the sequential stream at depths[i], point 2i+1 the
	// random benchmark.
	times, err := sweep(o, 2*len(depths), func(pt *point, i int) (result, error) {
		depth := depths[i/2]
		p := o.P
		p.PrefetchDepth = depth
		// Prefetch traffic shares the client RMC with demand traffic;
		// give the RMC a queue deep enough to hold the stream.
		if depth > 0 && p.RMCQueueDepth < depth+1 {
			p.RMCQueueDepth = depth + 1
		}
		if i%2 == 0 {
			return runSequential(pt, p, lines)
		}
		return pt.micro(p, 1, 1, 1, 1, lines)
	})
	if err != nil {
		return nil, err
	}
	for i, depth := range depths {
		seq.Add(float64(depth), us(float64(times[2*i].end)/float64(lines)))
		rnd.Add(float64(depth), us(float64(times[2*i+1].end)/float64(lines)))
		localRef.Add(float64(depth), us(float64(o.P.DRAMLatency+o.P.DRAMOccupancy+o.P.L1Latency)))
	}
	fig.Note("depth 0 is the prototype; deeper prefetch hides the fabric round trip behind the stream")
	fig.Note("the curve floors at the client RMC's %.2f µs service occupancy — prefetching hides latency, not occupancy; closing the rest of the gap needs the ASIC RMC the paper also proposes",
		float64(o.P.RMCClientOccupancy)/float64(params.Microsecond))
	return fig, nil
}

// runSequential streams one thread over consecutive remote lines on a
// fresh system built from p.
func runSequential(pt *point, p params.Params, lines int) (result, error) {
	r, err := pt.run(p)
	if err != nil {
		return result{}, err
	}
	rng, err := r.borrow(1, 2, uint64(lines+64)*params.CacheLineSize)
	if err != nil {
		return result{}, err
	}
	if _, err := r.start(1, cpu.ThreadConfig{Name: "seq", Stream: lineStream(rng.Start, lines, false)}, 0); err != nil {
		return result{}, err
	}
	return r.finish()
}

// AblationParallelPhase demonstrates the prototype's concession and its
// escape hatch (paper Section IV-B): writable remote data restricts the
// application to one core, but a *read-only* phase — after flushing the
// caches — can run with several threads, because reads of unshared,
// unwritten remote memory need no coherency at all. Throughput scales
// with threads until the client RMC's service rate binds, exactly like
// Figure 7's read curves.
func AblationParallelPhase(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("ablationE", "Read-only parallel phase after a serial write phase",
		"threads in the read-only phase", "phase time (ms)")
	readPhase := fig.AddSeries("read-only phase")
	ideal := fig.AddSeries("ideal scaling")

	totalReads := o.scaled(60000, 1200)
	threadCounts := []int{1, 2, 4, 8}
	times, err := sweep(o, len(threadCounts), func(pt *point, i int) (sim.Time, error) {
		return runParallelPhase(pt, threadCounts[i], totalReads)
	})
	if err != nil {
		return nil, err
	}
	base := ms(times[0]) // the 1-thread phase anchors the ideal-scaling line
	for i, threads := range threadCounts {
		readPhase.Add(float64(threads), ms(times[i]))
		ideal.Add(float64(threads), base/float64(threads))
	}
	fig.Note("a serial write phase plus cache flush precedes each measurement; scaling saturates at the client RMC like Fig 7")
	return fig, nil
}

// runParallelPhase writes a remote buffer with one thread, flushes the
// node's caches, then measures a read-only phase with the given number
// of threads and returns the phase time.
func runParallelPhase(pt *point, threads, totalReads int) (sim.Time, error) {
	o := pt.o
	r, err := pt.run(o.P)
	if err != nil {
		return 0, err
	}
	rng, err := r.borrow(1, 2, 64<<20)
	if err != nil {
		return 0, err
	}

	// Serial write phase: one core writes the first lines of the buffer.
	writer := cpu.ThreadConfig{Name: "writer", Stream: lineStream(rng.Start, o.scaled(2000, 100), true)}
	if _, err := r.start(1, writer, 0); err != nil {
		return 0, err
	}
	if _, err := r.finish(); err != nil {
		return 0, err
	}

	// Flush: dirty remote lines go home; after this, caching remote data
	// read-only is safe on any number of cores.
	node, err := r.sys.Cluster().Node(1)
	if err != nil {
		return 0, err
	}
	node.FlushCaches(r.sys.Now())

	// Read-only phase: `threads` cores, random reads over the buffer.
	start := r.sys.Now()
	for t := 0; t < threads; t++ {
		stream, err := workloads.RandomStream(o.Seed+int64(t)*31, []addr.Range{rng}, totalReads/threads, 0)
		if err != nil {
			return 0, err
		}
		reader := cpu.ThreadConfig{Name: fmt.Sprintf("reader%d", t), Stream: stream, Core: t * (o.P.CoresPerNode / threads)}
		if _, err := r.start(1, reader, start); err != nil {
			return 0, err
		}
	}
	res, err := r.finish()
	return res.end - start, err
}
