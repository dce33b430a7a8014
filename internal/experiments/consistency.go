package experiments

import (
	"fmt"

	"repro/internal/consistency"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/stats"
)

// ConsistencyCost is experiment H: the price of consistency strength.
// The same seeded program of reads and writes over a small set of
// shared hot lines — with periodic release/acquire fences, the shape a
// data-race-free application actually issues — runs under each protocol
// of the consistency lab at growing node counts, and the figure plots
// mean latency per operation. The expected separation (the shape of
// arXiv:1109.5153's SC-vs-weak gap): directory MSI pays invalidations
// and interventions that grow with the sharing degree, the non-coherent
// RMC mode pays a flat remote round trip, and release consistency pays
// only at the fences. The MESI column prices the E-state trade inside
// the coherent family: silent E→M upgrades make private read-then-write
// cheaper than MSI while read-shared lines pay an extra intervention.
// Every coherent (msi, mesi) history is self-validated — directory
// invariants plus the per-location linearizability check — so the cost
// curve is backed by a machine-checked consistency claim, not asserted.
func ConsistencyCost(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("ablationH", "Cost of consistency strength vs nodes sharing the data",
		"nodes issuing the shared-line program", "mean latency per op (µs)")
	series := make(map[string]*stats.Series)
	for _, name := range consistency.Names() {
		proto, err := consistency.NewProtocol(name, o.P, 2)
		if err != nil {
			return nil, err
		}
		series[name] = fig.AddSeries(fmt.Sprintf("%s (%s)", name, proto.Model()))
	}

	opsPerNode := o.scaled(2000, 50)
	const hotLines = 8
	nodeCounts := []int{2, 4, 8, 12, 16}
	points, err := sweep(o, len(nodeCounts), func(pt *point, i int) (map[string]float64, error) {
		nodes := nodeCounts[i]
		// One program and one schedule per node count, shared by every
		// protocol so the cost comparison is apples-to-apples.
		prog := consistency.RandomProgram(o.Seed+int64(nodes)*7919, nodes, opsPerNode, hotLines, 0.3, true)
		sched := consistency.RandomSchedule(o.Seed+int64(nodes)*104729, prog)
		cost := make(map[string]float64)
		reg := metrics.NewRegistry()
		for _, name := range consistency.Names() {
			proto, err := consistency.NewProtocol(name, o.P, nodes)
			if err != nil {
				return nil, err
			}
			if name == "msi" {
				// Surface the directory's coherence traffic in the
				// metrics output (invalidations, interventions,
				// fan-out) — a fresh registry per point keeps the
				// simulation single-threaded and the merge ordered.
				// Only the msi directory is instrumented: mesi would
				// re-register the same families, and the figure needs
				// one canonical coherent-traffic column.
				proto.(consistency.Directoried).Directory().Instrument(reg)
			}
			h, err := consistency.RunProgram(proto, prog, sched)
			if err != nil {
				return nil, err
			}
			if err := proto.SelfCheck(); err != nil {
				return nil, err
			}
			if _, coherent := proto.(consistency.Directoried); coherent {
				// Both coherent comparators promise linearizability;
				// their cost curves land in the figure only with the
				// claim machine-checked.
				if ok, reason := consistency.CheckPerLocation(h); !ok {
					return nil, fmt.Errorf("experiments: %s history not linearizable at %d nodes: %s", name, nodes, reason)
				}
			}
			cost[name] = usPerOpCost(h)
		}
		pt.keep(reg)
		return cost, nil
	})
	if err != nil {
		return nil, err
	}
	for i, nodes := range nodeCounts {
		for _, name := range consistency.Names() {
			series[name].Add(float64(nodes), points[i][name])
		}
	}
	fig.Note("same seeded DRF program per node count under every protocol; the coherent pair (msi, mesi) pays sharing-degree coherence traffic — mesi trading silent E→M upgrades against extra E interventions — rmc a flat round trip, rc only at the fences (coherent histories machine-checked per-location linearizable)")
	return fig, nil
}

// usPerOpCost converts a history's total simulated cost to microseconds
// per read/write.
func usPerOpCost(h consistency.History) float64 {
	ops := h.Ops()
	if ops == 0 {
		return 0
	}
	return float64(h.TotalCost()) / float64(ops) / float64(params.Microsecond)
}
