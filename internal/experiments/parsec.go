package experiments

import (
	"repro/internal/addr"
	"repro/internal/anmodel"
	"repro/internal/cohdsm"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func anInputs(o Options, total uint64, perPage float64) anmodel.Inputs {
	in := anmodel.FromParams(o.P, 1)
	in.ATotal = total
	in.APage = perPage
	return in
}

// Fig11 runs the PARSEC-class suite under the three configurations of
// the paper's final experiment: all-local memory (the 128 GB mainframe
// stand-in), the prototype's remote memory, and remote swap. Kernel
// footprints are scaled multiples of the swap configuration's local
// memory, preserving each benchmark's footprint class.
func Fig11(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("fig11", "PARSEC-class benchmarks under three memory configurations",
		"benchmark", "execution time (ms)")

	p := o.P
	// Scale the kernels via the residency knob so Scale shrinks both the
	// footprints and the local budget coherently.
	p.SwapResidentPages = btreeResidency(o)
	suite := workloads.ParsecSuite(p)

	configs := []memmodel.Config{memmodel.ConfigLocal, memmodel.ConfigRemote, memmodel.ConfigRemoteSwap}
	series := make(map[memmodel.Config]*stats.Series, len(configs))
	for _, cfg := range configs {
		series[cfg] = fig.AddSeries(cfg.String())
	}
	// One task per (kernel, config) pair; Kernel is a pure value and each
	// task builds its own accessor stack, so tasks share nothing.
	times, err := sweep(o, len(suite)*len(configs), func(_ *point, i int) (float64, error) {
		k := suite[i/len(configs)]
		cfg := configs[i%len(configs)]
		base, err := memmodel.Build(cfg, p, 1, p.SwapResidentPages)
		if err != nil {
			return 0, err
		}
		acc, err := memmodel.NewLineCached(base, p, memmodel.DefaultCacheLines)
		if err != nil {
			return 0, err
		}
		res := k.Run(acc, o.Seed)
		return ms(res.Total()), nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range suite {
		for c, cfg := range configs {
			series[cfg].AddLabeled(k.Name, float64(i), times[i*len(configs)+c])
		}
	}
	fig.Note("expected: blackscholes/raytrace swap ~2x the prototype; canneal swap prohibitive, prototype slower than local but feasible; streamcluster all equal")
	return fig, nil
}

// AblationCoherency is the motivation experiment the paper argues from:
// what inter-node coherency would cost. On the coherent-DSM baseline
// (the 3Leaf/ScaleMP approach), the cost of writing a line grows with
// the number of nodes that have read it, because every one of their
// caches must be invalidated. Under the RMC architecture the same write
// costs the flat remote round trip no matter how many nodes contribute
// memory, because no cache outside the writer's node ever holds the
// line — coherency domains never span nodes.
func AblationCoherency(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("ablationA", "Coherency overhead vs nodes sharing the data",
		"nodes that read the line before the write", "write latency (µs)")
	coh := fig.AddSeries("coherent DSM (directory MSI)")
	rmcFlat := fig.AddSeries("non-coherent RMC region")

	accesses := o.scaled(40000, 800)
	const lines = 256
	sharerCounts := []int{1, 2, 4, 8, 12, 15}
	type sharerPoint struct{ coh, rmc float64 }
	points, err := sweep(o, len(sharerCounts), func(pt *point, i int) (sharerPoint, error) {
		sharers := sharerCounts[i]
		m, err := cohdsm.New(o.P, 16)
		if err != nil {
			return sharerPoint{}, err
		}
		// For each line: `sharers` distinct nodes read it, then node 15
		// (never among the readers) writes it. Average the write cost.
		var writeTotal params.Duration
		for l := uint64(0); l < lines; l++ {
			for s := 0; s < sharers; s++ {
				if _, err := m.Access(s, l, false); err != nil {
					return sharerPoint{}, err
				}
			}
			lat, err := m.Access(15, l, true)
			if err != nil {
				return sharerPoint{}, err
			}
			writeTotal += lat
		}
		if err := m.CheckInvariants(); err != nil {
			return sharerPoint{}, err
		}
		coh := us(float64(writeTotal) / float64(lines))

		// RMC side: one node aggregates memory from the same number of
		// donors and writes it with no coherency traffic at all —
		// measured on the micro layer so congestion effects are not
		// assumed away.
		donors := make([]addr.NodeID, sharers)
		for d := range donors {
			donors[d] = addr.NodeID(2 + d)
		}
		r, err := pt.run(o.P)
		if err != nil {
			return sharerPoint{}, err
		}
		if err := r.random(1, donors, 64<<20, 1, accesses, 0.25, o.Seed); err != nil {
			return sharerPoint{}, err
		}
		res, err := r.finish()
		if err != nil {
			return sharerPoint{}, err
		}
		return sharerPoint{coh: coh, rmc: us(res.mean)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, sharers := range sharerCounts {
		coh.Add(float64(sharers), points[i].coh)
		rmcFlat.Add(float64(sharers), points[i].rmc)
	}
	fig.Note("coherent-DSM write cost grows with the sharer count; the RMC write cost is the flat remote round trip")
	return fig, nil
}
