package mesh

import (
	"repro/internal/addr"
	"repro/internal/sim"
)

// MinDelayMatrix computes the conservative lookahead bound of the
// sharded engine (DESIGN §16): B[j][i] is a lower bound on how long any
// frame sent by a node of region j takes to arrive at a node of region
// i, minimized over every route the router could take. Each directed
// edge costs at least one link occupancy (a frame serializes before it
// crosses) plus the edge's traversal latency, so the cost of the
// cheapest path between the regions — a multi-source Dijkstra from each
// region over the mesh plus any express links — lower-bounds every
// actual delivery: XY routes and fault detours only take longer paths,
// injector delays only add time, and contention only pushes Acquire
// later. B[j][j] is the minimum outgoing edge cost from region j, a
// lower bound for intra-region deliveries (every delivery crosses at
// least one link; the zero-hop self-delivery case never reaches the
// exchange). The matrix is a pure function of geometry, the latency
// table, and the express-link set, so it is identical on every run.
func (f *Fabric) MinDelayMatrix(part Partition) [][]sim.Time {
	n := f.topo.Nodes()
	k := part.Shards()

	// Directed adjacency: mesh edges at their per-edge latency, express
	// edges at the uniform HopLatency, every traversal paying at least
	// one LinkOccupancy of serialization.
	type arc struct {
		to   int
		cost sim.Time
	}
	adj := make([][]arc, n+1)
	for id := addr.NodeID(1); int(id) <= n; id++ {
		for _, nb := range f.topo.Neighbors(id) {
			i, _ := f.linkIndex(id, nb)
			adj[id] = append(adj[id], arc{to: int(nb), cost: f.p.LinkOccupancy + f.links[i].lat})
		}
	}
	for key := range f.express {
		adj[key.from] = append(adj[key.from], arc{to: int(key.to), cost: f.p.LinkOccupancy + f.p.HopLatency})
	}

	const inf = sim.Time(1) << 62
	b := make([][]sim.Time, k)
	dist := make([]sim.Time, n+1)
	// heap entries are (dist, node) pairs; a stale pair is skipped when
	// it pops with a distance above the settled one.
	type qe struct {
		d    sim.Time
		node int
	}
	var heap []qe
	push := func(e qe) {
		heap = append(heap, e)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].d <= heap[i].d {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() qe {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && heap[c+1].d < heap[c].d {
				c++
			}
			if heap[i].d <= heap[c].d {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}

	for j := 0; j < k; j++ {
		for i := range dist {
			dist[i] = inf
		}
		heap = heap[:0]
		self := inf
		for id := addr.NodeID(1); int(id) <= n; id++ {
			if part.ShardOf(id) != j {
				continue
			}
			dist[id] = 0
			push(qe{d: 0, node: int(id)})
			for _, a := range adj[id] {
				if a.cost < self {
					self = a.cost
				}
			}
		}
		for len(heap) > 0 {
			e := pop()
			if e.d > dist[e.node] {
				continue
			}
			for _, a := range adj[e.node] {
				if nd := e.d + a.cost; nd < dist[a.to] {
					dist[a.to] = nd
					push(qe{d: nd, node: a.to})
				}
			}
		}
		row := make([]sim.Time, k)
		for i := range row {
			row[i] = inf
		}
		row[j] = self
		for id := addr.NodeID(1); int(id) <= n; id++ {
			i := part.ShardOf(id)
			if i != j && dist[id] < row[i] {
				row[i] = dist[id]
			}
		}
		b[j] = row
	}
	return b
}
