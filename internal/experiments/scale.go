package experiments

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/stats"
)

// Scale is the sharded-engine stress workload: every node in the mesh
// runs client threads against the memory of its point reflection
// through the mesh center, so traffic crosses the whole fabric and
// every shard of a partitioned run carries both client and server work.
// It exists to exercise 1000+-node fabrics (-mesh 32x32) and to measure
// the parallel engine (-shards K): the rendered figure and merged
// metrics are byte-identical at every shard count, while wall-clock
// drops with K. The x-axis sweeps threads per node; y is simulated
// completion time, which grows with per-node injection rate.
func Scale(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("scale", "Whole-fabric load (every node a client)",
		"threads per node", "completion time (ms)")
	elapsed := fig.AddSeries("completion time (ms)")
	lat := fig.AddSeries("mean access latency (µs)")

	perThread := o.scaled(2000, 40)
	threadCounts := []int{1, 2}

	pts, err := sweep(o, len(threadCounts), func(pt *point, i int) (result, error) {
		return scalePoint(pt, threadCounts[i], perThread)
	})
	if err != nil {
		return nil, err
	}
	for i, res := range pts {
		elapsed.AddLabeled(fmt.Sprintf("%dt", threadCounts[i]), float64(threadCounts[i]), ms(res.end))
		lat.AddLabeled(fmt.Sprintf("%dt", threadCounts[i]), float64(threadCounts[i]), us(res.mean))
	}
	fig.Note("all %d nodes issue %d random loads per thread against their diametric partner",
		o.P.MeshWidth*o.P.MeshHeight, perThread)
	return fig, nil
}

// scalePoint simulates one whole-fabric load point: every node runs
// threadsPer random-benchmark threads over 8 MiB borrowed from its point
// reflection.
func scalePoint(pt *point, threadsPer, perThread int) (result, error) {
	r, err := pt.run(pt.o.P)
	if err != nil {
		return result{}, err
	}
	topo := r.sys.Cluster().Topology()
	for id := 1; id <= topo.Nodes(); id++ {
		client := addr.NodeID(id)
		x, y := topo.Coord(client)
		partner := topo.NodeAt(topo.W-1-x, topo.H-1-y)
		if partner == client {
			continue // odd-sized mesh center reflects onto itself
		}
		seed := pt.o.Seed + int64(id)*104729
		if err := r.random(client, []addr.NodeID{partner}, 8<<20, threadsPer, perThread, 0, seed); err != nil {
			return result{}, err
		}
	}
	return r.finish()
}
