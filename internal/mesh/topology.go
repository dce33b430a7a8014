// Package mesh models the prototype's inter-node fabric: a W×H 2D mesh
// of HTX switches with deterministic XY dimension-order routing
// (deadlock-free), per-link FIFO serialization, and optional express
// links — the prototype's HTX card has six connectors of which four form
// the mesh, leaving spares for direct point-to-point links such as the
// private control link of the Figure 8 experiment.
package mesh

import (
	"fmt"

	"repro/internal/addr"
)

// Topology is the geometry of a W×H mesh. Node identifiers are 1-based
// in row-major order: node 1 at (0,0), node W at (W-1,0), and so on —
// identifier 0 stays reserved, matching the addressing scheme.
type Topology struct {
	W, H int
}

// NewTopology validates and returns a mesh geometry.
func NewTopology(w, h int) (Topology, error) {
	if w < 1 || h < 1 {
		return Topology{}, fmt.Errorf("mesh: invalid geometry %dx%d", w, h)
	}
	// Bound each side before multiplying: the product of two sides
	// past ~3e9 overflows int.
	if w > addr.MaxNode || h > addr.MaxNode || w*h > addr.MaxNode {
		return Topology{}, fmt.Errorf("mesh: %dx%d exceeds %d addressable nodes", w, h, addr.MaxNode)
	}
	return Topology{W: w, H: h}, nil
}

// Nodes returns the node count.
func (t Topology) Nodes() int { return t.W * t.H }

// NodeAt returns the identifier of the node at mesh coordinate (x, y).
func (t Topology) NodeAt(x, y int) addr.NodeID {
	if x < 0 || x >= t.W || y < 0 || y >= t.H {
		panic(fmt.Sprintf("mesh: coordinate (%d,%d) outside %dx%d", x, y, t.W, t.H))
	}
	return addr.NodeID(y*t.W + x + 1)
}

// Coord returns the mesh coordinate of a node.
func (t Topology) Coord(n addr.NodeID) (x, y int) {
	if !t.Contains(n) {
		panic(fmt.Sprintf("mesh: node %d outside %dx%d", n, t.W, t.H))
	}
	i := int(n) - 1
	return i % t.W, i / t.W
}

// Contains reports whether the node identifier is part of this mesh.
func (t Topology) Contains(n addr.NodeID) bool { return n >= 1 && int(n) <= t.Nodes() }

// Hops returns the Manhattan distance between two nodes — the hop count
// of the XY route.
func (t Topology) Hops(a, b addr.NodeID) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// Neighbors returns the mesh neighbors of a node.
func (t Topology) Neighbors(n addr.NodeID) []addr.NodeID {
	x, y := t.Coord(n)
	var out []addr.NodeID
	if x > 0 {
		out = append(out, t.NodeAt(x-1, y))
	}
	if x < t.W-1 {
		out = append(out, t.NodeAt(x+1, y))
	}
	if y > 0 {
		out = append(out, t.NodeAt(x, y-1))
	}
	if y < t.H-1 {
		out = append(out, t.NodeAt(x, y+1))
	}
	return out
}

// AtDistance returns all nodes exactly d hops from n, in identifier
// order. Used by experiments that place memory servers at a chosen
// distance from a client.
func (t Topology) AtDistance(n addr.NodeID, d int) []addr.NodeID {
	var out []addr.NodeID
	for id := addr.NodeID(1); int(id) <= t.Nodes(); id++ {
		if id != n && t.Hops(n, id) == d {
			out = append(out, id)
		}
	}
	return out
}

// Partition is a static kx×ky tiling of the mesh into k = kx·ky
// rectangular regions, one simulation shard per region. Regions must
// tile the mesh exactly (kx divides W, ky divides H) so every shard owns
// the same number of nodes and the assignment is a pure function of the
// geometry — the determinism contract requires shard membership to be
// identical on every run.
type Partition struct {
	topo   Topology
	KX, KY int // region grid
	RW, RH int // region extent in mesh coordinates
}

// Partition splits the mesh into k regions, choosing the most-square
// kx×ky factorization that tiles the geometry. It fails when no
// factorization of k fits (e.g. a prime k that divides neither side).
func (t Topology) Partition(k int) (Partition, error) {
	if k < 1 {
		return Partition{}, fmt.Errorf("mesh: shard count %d < 1", k)
	}
	if k > t.Nodes() {
		return Partition{}, fmt.Errorf("mesh: %d shards exceed %d nodes", k, t.Nodes())
	}
	// Scan divisor pairs from the square root down: the first (kx, ky)
	// with kx | W and ky | H is the most-square tiling. Try both
	// orientations of each pair so wide meshes can take the wide factor.
	for d := isqrt(k); d >= 1; d-- {
		if k%d != 0 {
			continue
		}
		for _, p := range [2][2]int{{k / d, d}, {d, k / d}} {
			kx, ky := p[0], p[1]
			if kx <= t.W && ky <= t.H && t.W%kx == 0 && t.H%ky == 0 {
				return Partition{topo: t, KX: kx, KY: ky, RW: t.W / kx, RH: t.H / ky}, nil
			}
		}
	}
	return Partition{}, fmt.Errorf("mesh: no %d-shard tiling of a %dx%d mesh (shard count must factor as kx*ky with kx|%d, ky|%d)",
		k, t.W, t.H, t.W, t.H)
}

// Shards returns the region count.
func (p Partition) Shards() int { return p.KX * p.KY }

// ShardOf returns the region index of a node, row-major over the region
// grid.
func (p Partition) ShardOf(n addr.NodeID) int {
	x, y := p.topo.Coord(n)
	return (y/p.RH)*p.KX + x/p.RW
}

func isqrt(v int) int {
	r := 0
	for (r+1)*(r+1) <= v {
		r++
	}
	return r
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
