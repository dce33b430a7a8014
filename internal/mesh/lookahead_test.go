package mesh

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// newLookaheadFabric builds a fabric plus partition for the matrix tests.
func newLookaheadFabric(t *testing.T, w, h, shards int, p params.Params, inj *faults.Injector) (*Fabric, Partition) {
	t.Helper()
	topo, err := NewTopology(w, h)
	if err != nil {
		t.Fatal(err)
	}
	part, err := topo.Partition(shards)
	if err != nil {
		t.Fatal(err)
	}
	return NewFabric(metrics.NewRegistry(), topo, p, inj), part
}

// TestMinDelayMatrixGeometry pins the matrix against hand-computed
// shortest paths on a 4x4 mesh split into 2x2 regions: adjacent regions
// are one edge apart, diagonal regions two, and the self bound is one
// minimum outgoing edge.
func TestMinDelayMatrixGeometry(t *testing.T) {
	p := params.Default()
	fab, part := newLookaheadFabric(t, 4, 4, 4, p, nil)
	if part.Shards() != 4 {
		t.Fatalf("partitioned into %d shards, want 4", part.Shards())
	}
	b := fab.MinDelayMatrix(part)
	edge := p.LinkOccupancy + p.HopLatency
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			want := edge // self and adjacent regions
			if j+i == 3 && j != i {
				want = 2 * edge // diagonal regions of the 2x2 split
			}
			if b[j][i] != want {
				t.Errorf("B[%d][%d] = %d, want %d", j, i, b[j][i], want)
			}
		}
	}
}

// TestMinDelayMatrixLinkLat checks the matrix consumes the same per-edge
// latency table as the router: a slow vertical axis widens every bound
// that must cross it, and a fast horizontal axis narrows the rest.
func TestMinDelayMatrixLinkLat(t *testing.T) {
	p := params.Default()
	ll, err := params.ParseLinkLat("x=60ns,y=400ns")
	if err != nil {
		t.Fatal(err)
	}
	p.LinkLat = ll
	fab, part := newLookaheadFabric(t, 4, 4, 4, p, nil)
	b := fab.MinDelayMatrix(part)
	xEdge := p.LinkOccupancy + 60*params.Nanosecond
	yEdge := p.LinkOccupancy + 400*params.Nanosecond
	// Regions 0 and 1 are horizontal neighbors; 0 and 2 vertical.
	if b[0][1] != xEdge {
		t.Errorf("B[0][1] = %d, want one horizontal edge %d", b[0][1], xEdge)
	}
	if b[0][2] != yEdge {
		t.Errorf("B[0][2] = %d, want one vertical edge %d", b[0][2], yEdge)
	}
	// The self bound is the cheapest outgoing edge anywhere in the region.
	if b[0][0] != xEdge {
		t.Errorf("B[0][0] = %d, want the cheapest edge %d", b[0][0], xEdge)
	}
}

// TestMinDelayMatrixExpressLink checks an express link shows up as a new
// fastest inter-region path when the matrix is recomputed — the
// topology-change hook the cluster installs.
func TestMinDelayMatrixExpressLink(t *testing.T) {
	p := params.Default()
	fab, part := newLookaheadFabric(t, 8, 8, 4, p, nil)
	before := fab.MinDelayMatrix(part)
	edge := p.LinkOccupancy + p.HopLatency
	if before[0][3] != 2*edge {
		t.Fatalf("B[0][3] = %d before the express link, want %d", before[0][3], 2*edge)
	}
	recomputed := false
	fab.OnTopologyChange(func() { recomputed = true })
	// Corner of region 0 to corner of region 3: one express crossing.
	if err := fab.AddExpressLink(1, addr.NodeID(64)); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("AddExpressLink did not fire the topology-change hook")
	}
	after := fab.MinDelayMatrix(part)
	if after[0][3] != edge {
		t.Errorf("B[0][3] = %d with the express link, want one crossing %d", after[0][3], edge)
	}
}

// TestMinDelayMatrixLowerBoundsDelivery is the lookahead safety
// property: for every source/destination pair — under contention, fault
// detours, and injected delays — the frame's actual arrival is at or
// past send time plus the matrix bound. This is exactly why a shard
// window limited by B never admits a cross-shard delivery inside
// itself: deliveries sent at t land at or after t + B[src][dst], and
// every window limit is capped by the minimum bound into its shard.
func TestMinDelayMatrixLowerBoundsDelivery(t *testing.T) {
	plan, err := faults.Parse("seed=3,drop=0.05,corrupt=0.01,delayp=0.2,delay=300ns,down=6-7@0:50us")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		linklat string
		plan    *faults.Plan
	}{
		{"uniform-clean", "", nil},
		{"linklat-clean", "x=60ns,y=400ns,edge=1.0-2.0:250ns", nil},
		{"uniform-faulted", "", plan},
		{"linklat-faulted", "x=60ns,y=400ns", plan},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := params.Default()
			if tc.linklat != "" {
				ll, err := params.ParseLinkLat(tc.linklat)
				if err != nil {
					t.Fatal(err)
				}
				p.LinkLat = ll
			}
			var inj *faults.Injector
			if tc.plan != nil {
				inj = faults.NewInjector(tc.plan)
			}
			fab, part := newLookaheadFabric(t, 8, 8, 4, p, inj)
			b := fab.MinDelayMatrix(part)
			n := fab.topo.Nodes()
			now := sim.Time(0)
			for src := addr.NodeID(1); int(src) <= n; src++ {
				for dst := addr.NodeID(1); int(dst) <= n; dst++ {
					if src == dst {
						continue
					}
					out := fab.DeliverOutcome(now, src, dst, 64)
					if out.Status == faults.Dropped || out.Status == faults.Unreachable {
						continue // no delivery is scheduled for these
					}
					bound := b[part.ShardOf(src)][part.ShardOf(dst)]
					if sim.Time(out.Arrive) < now+bound {
						t.Fatalf("%d->%d: arrival %d beats bound %d (send %d)",
							src, dst, out.Arrive, now+bound, now)
					}
					now += 7 // stagger sends; contention only adds delay
				}
			}
		})
	}
}
