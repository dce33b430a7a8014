package integration

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/mesh"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// traceRec is one cross-shard transmission in canonical drain order.
type traceRec struct {
	t   sim.Time
	src addr.NodeID
	dst addr.NodeID
	seq uint64
}

// shardOracleRun replays a seeded 16x16 workload under k shards (and
// an optional fault plan) and returns the exchange's canonical
// transmission stream: every RMC send in (time, source, per-source
// sequence) drain order.
func shardOracleRun(t *testing.T, k int, seed int64, plan *faults.Plan) []traceRec {
	t.Helper()
	p := params.Default()
	p.MeshWidth, p.MeshHeight = 16, 16
	p.Shards = k
	if !plan.Empty() {
		p.Faults = plan
	}
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	var stream []traceRec
	sys.Cluster().Exchanges().Trace(func(at sim.Time, src, dst addr.NodeID, seq uint64) {
		stream = append(stream, traceRec{at, src, dst, seq})
	})

	topo, err := mesh.NewTopology(p.MeshWidth, p.MeshHeight)
	if err != nil {
		t.Fatal(err)
	}
	// Eight clients spread over every quadrant of the mesh, each loading
	// from its point reflection — guaranteed cross-shard traffic at
	// every partition the test uses.
	clients := []addr.NodeID{1, 24, 60, 86, 115, 150, 200, 250}
	for _, client := range clients {
		x, y := topo.Coord(client)
		partner := topo.NodeAt(topo.W-1-x, topo.H-1-y)
		region, err := sys.Region(client)
		if err != nil {
			t.Fatal(err)
		}
		rng, err := region.GrowFrom(partner, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		node, err := sys.Cluster().Node(client)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := workloads.RandomStream(seed+int64(client), []addr.Range{rng}, 200, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		th, err := cpu.NewThread(cpu.ThreadConfig{
			Name:         fmt.Sprintf("oracle-n%d", client),
			Engine:       node.Engine(),
			Memory:       node,
			Stream:       ws,
			WindowLocal:  p.LocalOutstanding,
			WindowRemote: p.RemoteOutstanding,
		})
		if err != nil {
			t.Fatal(err)
		}
		th.Start(0)
	}
	sys.Run()
	return stream
}

// diffStreams fails the test at the first event where two canonical
// streams deviate.
func diffStreams(t *testing.T, label string, want, got []traceRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d transmissions, oracle has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: transmission %d = %+v, oracle %+v", label, i, got[i], want[i])
		}
	}
}

// TestShardedEngineMatchesSingleShardOracle replays the same seeded
// 16x16 workload on the single-shard engine and on 4 and 8 shards —
// fault-free and under an armed fault plan — and requires the
// cross-shard exchange streams to match event for event: same
// transmissions, same simulated times, same canonical order.
func TestShardedEngineMatchesSingleShardOracle(t *testing.T) {
	plan, err := faults.Parse("seed=7,drop=0.02,corrupt=0.002")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"fault-free", nil},
		{"armed-plan", plan},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := shardOracleRun(t, 1, 42, tc.plan)
			if len(want) == 0 {
				t.Fatal("oracle run recorded no transmissions — workload did not reach the fabric")
			}
			for _, k := range []int{4, 8} {
				got := shardOracleRun(t, k, 42, tc.plan)
				diffStreams(t, fmt.Sprintf("shards=%d", k), want, got)
			}
		})
	}
}

// sparseStreamRun replays a sparse, distance-asymmetric workload — the
// locality smoke's shape: staggered clients running long dependent
// local stretches with occasional remote reads toward the far corner,
// over an asymmetric -linklat table — and returns the exchange's
// canonical transmission stream. The queues here are mostly empty or
// stalled, so the replay horizon is carried by the pending-intent
// cascade term rather than the queue heads; this is the regime where a
// horizon blind to freshly recorded intents replays a late send ahead
// of an earlier send's still-unrecorded response.
func sparseStreamRun(t *testing.T, k int) []traceRec {
	t.Helper()
	p := params.Default()
	p.MeshWidth, p.MeshHeight = 16, 16
	p.Shards = k
	p.PrefetchDepth = 0
	// Expensive columns, cheap rows, one very cheap edge far from the
	// busy corners: the minimum delivery bound (the horizon's cascade
	// term) is much tighter than the bounds between the busy shards, so
	// windows legitimately span several sends' worth of slack.
	ll, err := params.ParseLinkLat("x=200ns,y=60ns,edge=0.7-0.8:20ns")
	if err != nil {
		t.Fatal(err)
	}
	p.LinkLat = ll
	c, err := cluster.New(p)
	if err != nil {
		t.Fatal(err)
	}
	set := c.Set()
	var stream []traceRec
	c.Exchanges().Trace(func(at sim.Time, src, dst addr.NodeID, seq uint64) {
		stream = append(stream, traceRec{at, src, dst, seq})
	})
	topo := c.Topology()
	// The hazard shape: one chatty client whose partner sits one cheap
	// hop across its region boundary — every send's response cascades
	// back within nanoseconds — while far-away clients run long
	// dependent local stretches inside windows widened by the expensive
	// columns, recording sparse sends well after that cascade's time.
	for ci, cl := range []struct{ cx, cy, px, py, period int }{
		{0, 7, 0, 8, 6},    // cheap-edge round trips, fast cascades
		{15, 0, 0, 15, 16}, // far corner, sparse distant sends
		{12, 2, 3, 13, 24},
		{3, 15, 15, 1, 20},
	} {
		id := topo.NodeAt(cl.cx, cl.cy)
		partner := topo.NodeAt(cl.px, cl.py)
		n := c.MustNode(id)
		base := 0x400000 + uint64(ci)*0x100000
		period := cl.period
		i := 0
		var step func(sim.Time)
		step = func(now sim.Time) {
			if i >= 256 {
				return
			}
			i++
			a := addr.Phys(base + uint64(i)*4096)
			if i%period == 0 {
				a = a.WithNode(partner)
			}
			n.Issue(now, 0, cpu.Access{Addr: a}, false, step)
		}
		step(set.Now())
	}
	set.Run()
	return stream
}

// TestSparseStreamOracle covers the horizon's fresh-intent cascade
// term: on a sparse workload the dense oracle runs never exercise, the
// canonical transmission stream must stay event-for-event identical
// from one shard to 4 and 8.
func TestSparseStreamOracle(t *testing.T) {
	want := sparseStreamRun(t, 1)
	if len(want) == 0 {
		t.Fatal("sparse oracle run recorded no transmissions")
	}
	for _, k := range []int{4, 8} {
		got := sparseStreamRun(t, k)
		diffStreams(t, fmt.Sprintf("shards=%d", k), want, got)
	}
}
