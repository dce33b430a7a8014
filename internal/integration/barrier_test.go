package integration

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/mesh"
	"repro/internal/params"
	"repro/internal/sim"
)

// newBarrierSmoke builds the 16x16, eight-shard cluster the barrier
// smokes run on.
func newBarrierSmoke(t *testing.T, window params.WindowMode, mut func(*params.Params)) (*cluster.Cluster, *sim.ShardSet, mesh.Topology) {
	t.Helper()
	p := params.Default()
	p.MeshWidth, p.MeshHeight = 16, 16
	p.Shards = 8
	p.Window = window
	if mut != nil {
		mut(&p)
	}
	set := sim.NewShardSet(p.Shards, p.LinkLat.MinLatency(p.HopLatency))
	c, err := cluster.New(set, p)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mesh.NewTopology(p.MeshWidth, p.MeshHeight)
	if err != nil {
		t.Fatal(err)
	}
	return c, set, topo
}

// localitySmoke is the tentpole's headline workload: four clients along
// the top row issue dependent access chains that are overwhelmingly
// local — stride reads missing cache and filling from the node's own
// bank, pure shard-local event work — with every sixty-fourth access a
// remote line read to the diametric partner. The rest of the mesh is
// idle. Under the uniform single-hop window the coordinator must
// barrier once per 120 ns of simulated time even though nothing
// crosses a shard for microseconds at a stretch; the adaptive schedule
// sees no pending cross-shard intent, plans unbounded windows, and only
// barriers when a send actually clamps one.
func localitySmoke(t *testing.T, window params.WindowMode) (barriers, elided uint64) {
	t.Helper()
	// The stream prefetcher stays off: the strided remote reads would
	// otherwise arm it and fill the quiet local stretches with
	// background fabric traffic — fine to simulate, but it makes the
	// barrier count pin prefetcher behavior rather than the window
	// schedule.
	c, set, topo := newBarrierSmoke(t, window, func(p *params.Params) { p.PrefetchDepth = 0 })
	const opsPerClient = 256
	// All four clients sit in the north-west region (shard 0 of the
	// 4x2 tiling); their diametric partners share the south-east
	// region, ten-plus hops away, so the lookahead matrix separates
	// the two busy shards by more than a microsecond of provable slack.
	for ci, cx := range []int{0, 1, 2, 3} {
		id := topo.NodeAt(cx, 0)
		x, y := topo.Coord(id)
		partner := topo.NodeAt(topo.W-1-x, topo.H-1-y)
		n := c.MustNode(id)
		base := 0x400000 + uint64(ci)*0x100000
		i := 0
		var step func(sim.Time)
		step = func(now sim.Time) {
			if i >= opsPerClient {
				return
			}
			i++
			a := addr.Phys(base + uint64(i)*4096)
			if i%64 == 0 {
				a = a.WithNode(partner)
			}
			n.Issue(now, 0, cpu.Access{Addr: a}, false, step)
		}
		step(set.Now())
	}
	set.Run()
	return set.Barriers, set.Elided
}

// concurrentSmoke is the sharded throughput benchmark's shape: every
// node issuing a remote read to its diametric partner, eight rounds.
// All-remote traffic is bounded below by one barrier per dependency
// phase — a delivery cannot exist until a barrier replays its send — so
// the schedule win here is modest by construction.
func concurrentSmoke(t *testing.T, window params.WindowMode) (barriers, elided uint64) {
	t.Helper()
	c, set, topo := newBarrierSmoke(t, window, nil)
	noop := func(sim.Time) {}
	for round := 0; round < 8; round++ {
		now := set.Now()
		for id := 1; id <= topo.Nodes(); id++ {
			x, y := topo.Coord(addr.NodeID(id))
			partner := topo.NodeAt(topo.W-1-x, topo.H-1-y)
			a := addr.Phys(0x100000 + uint64(id)*64).WithNode(partner)
			c.MustNode(addr.NodeID(id)).Issue(now, 0, cpu.Access{Addr: a}, false, noop)
		}
		set.Run()
	}
	return set.Barriers, set.Elided
}

// TestBarrierElisionOnLocalitySmoke pins the tentpole's headline win:
// on the skewed 16x16 locality smoke, the elide schedule must cut the
// barrier count at least 5x against the uniform-window baseline,
// because the uniform cadence pays one barrier per 120 ns of dependent
// local work while the adaptive schedule only barriers around the
// sparse remote phases.
func TestBarrierElisionOnLocalitySmoke(t *testing.T) {
	uniform, _ := localitySmoke(t, params.WindowUniform)
	elide, elided := localitySmoke(t, params.WindowElide)
	t.Logf("locality barriers: uniform=%d elide=%d (%.1fx), elided=%d",
		uniform, elide, float64(uniform)/float64(elide), elided)
	if uniform == 0 || elide == 0 {
		t.Fatal("smoke ran no barriers — workload never reached the fabric")
	}
	if elide*5 > uniform {
		t.Errorf("elide barriers = %d, want at least 5x below uniform's %d", elide, uniform)
	}
	if elided == 0 {
		t.Error("elision counter stayed zero on the locality smoke")
	}
}

// TestBarrierElisionOnConcurrentSmoke checks the all-remote concurrent
// smoke still improves monotonically: the adaptive schedule must never
// barrier more than the uniform baseline, and must elide at least some
// windows even when every node is sending.
func TestBarrierElisionOnConcurrentSmoke(t *testing.T) {
	uniform, _ := concurrentSmoke(t, params.WindowUniform)
	elide, elided := concurrentSmoke(t, params.WindowElide)
	t.Logf("concurrent barriers: uniform=%d elide=%d (%.1fx), elided=%d",
		uniform, elide, float64(uniform)/float64(elide), elided)
	if uniform == 0 || elide == 0 {
		t.Fatal("smoke ran no barriers — workload never reached the fabric")
	}
	if elide > uniform {
		t.Errorf("elide barriers = %d, want no more than uniform's %d", elide, uniform)
	}
	if elided == 0 {
		t.Error("elision counter stayed zero on the concurrent smoke")
	}
}
