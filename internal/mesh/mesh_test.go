package mesh

import (
	"strconv"
	"testing"

	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

func topo4x4(t *testing.T) Topology {
	t.Helper()
	topo, err := NewTopology(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology(0, 4); err == nil {
		t.Error("0-width mesh accepted")
	}
	for _, wh := range [][2]int{{200, 200}, {4294967296, 4294967296}, {3037000500, 3037000500}} {
		if _, err := NewTopology(wh[0], wh[1]); err == nil {
			t.Errorf("%dx%d mesh exceeding addressable nodes accepted", wh[0], wh[1])
		}
	}
}

func TestNodeCoordRoundTrip(t *testing.T) {
	topo := topo4x4(t)
	if topo.Nodes() != 16 {
		t.Fatalf("Nodes = %d", topo.Nodes())
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			n := topo.NodeAt(x, y)
			gx, gy := topo.Coord(n)
			if gx != x || gy != y {
				t.Errorf("coord roundtrip (%d,%d) -> %d -> (%d,%d)", x, y, n, gx, gy)
			}
		}
	}
	// Node ids are 1-based row-major.
	if topo.NodeAt(0, 0) != 1 || topo.NodeAt(3, 0) != 4 || topo.NodeAt(0, 1) != 5 {
		t.Error("node numbering wrong")
	}
}

func TestCoordPanics(t *testing.T) {
	topo := topo4x4(t)
	for name, fn := range map[string]func(){
		"NodeAt outside": func() { topo.NodeAt(4, 0) },
		"Coord node 0":   func() { topo.Coord(0) },
		"Coord node 17":  func() { topo.Coord(17) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestHopsAndPath: a frame takes the XY dimension-order route, Hops
// links long and X first: from (0,0) to (3,2) it crosses the first row
// to column 3, then turns down column 3.
func TestHopsAndPath(t *testing.T) {
	eng := sim.New()
	topo := topo4x4(t)
	f := NewFabric(eng.Metrics(), topo, params.Default(), nil)
	a, b := topo.NodeAt(0, 0), topo.NodeAt(3, 2)
	if got := topo.Hops(a, b); got != 5 {
		t.Errorf("Hops = %d, want 5", got)
	}
	if out := f.DeliverOutcome(0, a, b, 72); out.Hops != 5 {
		t.Fatalf("route took %d hops, want 5", out.Hops)
	}
	snap := eng.Metrics().Snapshot()
	path := [][2]int{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 1}, {3, 2}}
	for i := 0; i+1 < len(path); i++ {
		from, to := topo.NodeAt(path[i][0], path[i][1]), topo.NodeAt(path[i+1][0], path[i+1][1])
		ls := metrics.L("from", strconv.Itoa(int(from)), "to", strconv.Itoa(int(to)))
		if v, _ := snap.Value(metrics.FamMeshLinkFrames, ls); v != 1 {
			t.Errorf("link %d->%d carried %v frames, want 1", from, to, v)
		}
	}
	if got := snap.Total(metrics.FamMeshLinkFrames); got != 5 {
		t.Errorf("%v link crossings, want 5", got)
	}
}

func TestNeighbors(t *testing.T) {
	topo := topo4x4(t)
	if got := len(topo.Neighbors(topo.NodeAt(0, 0))); got != 2 {
		t.Errorf("corner has %d neighbors, want 2", got)
	}
	if got := len(topo.Neighbors(topo.NodeAt(1, 0))); got != 3 {
		t.Errorf("edge has %d neighbors, want 3", got)
	}
	if got := len(topo.Neighbors(topo.NodeAt(1, 1))); got != 4 {
		t.Errorf("interior has %d neighbors, want 4", got)
	}
}

func TestAtDistance(t *testing.T) {
	topo := topo4x4(t)
	corner := topo.NodeAt(0, 0)
	if got := len(topo.AtDistance(corner, 1)); got != 2 {
		t.Errorf("%d nodes at distance 1 from corner, want 2", got)
	}
	if got := len(topo.AtDistance(corner, 6)); got != 1 { // only (3,3)
		t.Errorf("%d nodes at distance 6, want 1", got)
	}
	for _, n := range topo.AtDistance(corner, 3) {
		if topo.Hops(corner, n) != 3 {
			t.Errorf("node %d not at distance 3", n)
		}
	}
}

func TestFabricDeliveryLatency(t *testing.T) {
	p := params.Default()
	eng := sim.New()
	topo := topo4x4(t)
	f := NewFabric(eng.Metrics(), topo, p, nil)

	if f.Links() != 2*(3*4+4*3) {
		t.Errorf("Links = %d, want 48 directed links", f.Links())
	}

	src, dst := topo.NodeAt(0, 0), topo.NodeAt(2, 0)
	out := f.DeliverOutcome(0, src, dst, 72)
	if out.Hops != 2 {
		t.Errorf("hops = %d, want 2", out.Hops)
	}
	want := 2 * (p.LinkOccupancy*2 + p.HopLatency) // 72B -> 2 occupancy units/hop
	if arrive := out.Arrive; arrive != want {
		t.Errorf("uncontended 2-hop delivery = %d, want %d", arrive, want)
	}
}

func TestFabricSelfDelivery(t *testing.T) {
	p := params.Default()
	f := NewFabric(metrics.NewRegistry(), topo4x4(t), p, nil)
	out := f.DeliverOutcome(100, 3, 3, 72)
	if out.Arrive != 100 || out.Hops != 0 {
		t.Errorf("self delivery = (%d, %d), want (100, 0)", out.Arrive, out.Hops)
	}
}

func TestFabricContention(t *testing.T) {
	p := params.Default()
	f := NewFabric(metrics.NewRegistry(), topo4x4(t), p, nil)
	topo := f.topo
	src, dst := topo.NodeAt(0, 0), topo.NodeAt(1, 0)
	// Two simultaneous frames on one link: the second serializes behind
	// the first.
	a1 := f.DeliverOutcome(0, src, dst, 72).Arrive
	a2 := f.DeliverOutcome(0, src, dst, 72).Arrive
	if a2 <= a1 {
		t.Errorf("contended frame arrived at %d, not after %d", a2, a1)
	}
	if a2-a1 != 2*p.LinkOccupancy {
		t.Errorf("serialization gap = %d, want %d", a2-a1, 2*p.LinkOccupancy)
	}
}

func TestFabricLargeTransferScalesOccupancy(t *testing.T) {
	p := params.Default()
	f := NewFabric(metrics.NewRegistry(), topo4x4(t), p, nil)
	topo := f.topo
	src, dst := topo.NodeAt(0, 0), topo.NodeAt(1, 0)
	small := f.DeliverOutcome(0, src, dst, 64).Arrive
	f2 := NewFabric(metrics.NewRegistry(), topo, p, nil)
	big := f2.DeliverOutcome(0, src, dst, 4096).Arrive
	if big <= small {
		t.Errorf("4 KiB frame (%d) not slower than 64 B frame (%d)", big, small)
	}
	if got, want := big-p.HopLatency, 64*p.LinkOccupancy; got != want {
		t.Errorf("page serialization = %d, want %d", got, want)
	}
}

func TestExpressLink(t *testing.T) {
	p := params.Default()
	f := NewFabric(metrics.NewRegistry(), topo4x4(t), p, nil)
	if err := f.AddExpressLink(1, 6); err != nil {
		t.Fatal(err)
	}
	if err := f.AddExpressLink(1, 6); err == nil {
		t.Error("duplicate express link accepted")
	}
	if err := f.AddExpressLink(1, 1); err == nil {
		t.Error("self express link accepted")
	}
	if err := f.AddExpressLink(0, 6); err == nil {
		t.Error("express link to node 0 accepted")
	}
	arrive, err := f.DeliverExpress(0, 1, 6, 72)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*p.LinkOccupancy + p.HopLatency
	if arrive != want {
		t.Errorf("express delivery = %d, want %d", arrive, want)
	}
	// Reverse direction exists too.
	if _, err := f.DeliverExpress(0, 6, 1, 72); err != nil {
		t.Errorf("reverse express failed: %v", err)
	}
	if _, err := f.DeliverExpress(0, 1, 7, 72); err == nil {
		t.Error("missing express link used")
	}
	// Express traffic does not load mesh links.
	u, err := f.LinkUtilization(1, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if u != 0 {
		t.Errorf("mesh link utilization = %v after express-only traffic", u)
	}
}

func TestLinkUtilization(t *testing.T) {
	p := params.Default()
	f := NewFabric(metrics.NewRegistry(), topo4x4(t), p, nil)
	f.DeliverOutcome(0, 1, 2, 64)
	u, err := f.LinkUtilization(1, 2, p.LinkOccupancy*10)
	if err != nil {
		t.Fatal(err)
	}
	if u != 0.1 {
		t.Errorf("utilization = %v, want 0.1", u)
	}
	if _, err := f.LinkUtilization(1, 11, 100); err == nil {
		t.Error("utilization of non-adjacent link computed")
	}
}
