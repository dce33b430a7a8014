package mesh

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestMetricsInstrumentation delivers one frame across the mesh and
// checks the per-link and fabric-wide counters.
func TestMetricsInstrumentation(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng.Metrics(), topo4x4(t), params.Default(), nil)
	// Node 1 -> node 3 is two hops along the first row.
	if hops := f.DeliverOutcome(0, 1, 3, 72).Hops; hops != 2 {
		t.Fatalf("hops = %d, want 2", hops)
	}
	snap := eng.Metrics().Snapshot()
	val := func(name string, ls metrics.Labels) float64 {
		v, _ := snap.Value(name, ls)
		return v
	}
	if got := snap.Total(metrics.FamMeshDelivered); got != 1 {
		t.Errorf("delivered = %v, want 1", got)
	}
	if got := snap.Total(metrics.FamMeshHops); got != 2 {
		t.Errorf("hops = %v, want 2", got)
	}
	if got := val(metrics.FamMeshLinkFrames, metrics.L("from", "1", "to", "2")); got != 1 {
		t.Errorf("link 1->2 frames = %v, want 1", got)
	}
	if got := val(metrics.FamMeshLinkBytes, metrics.L("from", "2", "to", "3")); got != 72 {
		t.Errorf("link 2->3 bytes = %v, want 72", got)
	}
	if got := val(metrics.FamMeshLinkFrames, metrics.L("from", "2", "to", "1")); got != 0 {
		t.Errorf("reverse link carried %v frames", got)
	}
	// The snapshot's link view agrees.
	links := snap.Links()
	var active int
	for _, l := range links {
		if l.Frames > 0 {
			active++
		}
	}
	if active != 2 {
		t.Errorf("%d active links in view, want 2", active)
	}
}

// TestLinkFamiliesCoverEveryLink: on meshes with one row, one column and
// both, the link families report exactly the topology's directed
// neighbour pairs, each once, with every link carrying its latency.
func TestLinkFamiliesCoverEveryLink(t *testing.T) {
	for _, wh := range [][2]int{{5, 1}, {1, 5}, {3, 4}} {
		topo, err := NewTopology(wh[0], wh[1])
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		f := NewFabric(eng.Metrics(), topo, params.Default(), nil)
		want := map[string]bool{}
		for id := addr.NodeID(1); int(id) <= topo.Nodes(); id++ {
			for _, nb := range topo.Neighbors(id) {
				want[fmt.Sprintf("%d-%d", id, nb)] = true
				if i, _ := f.linkIndex(id, nb); f.links[i].lat != params.Default().HopLatency {
					t.Errorf("%dx%d: link %d->%d has latency %d", wh[0], wh[1], id, nb, f.links[i].lat)
				}
			}
		}
		got := map[string]bool{}
		for _, sm := range eng.Metrics().Snapshot().Family(metrics.FamMeshLinkFrames).Samples {
			got[sm.Labels.Get("from")+"-"+sm.Labels.Get("to")] = true
		}
		if !maps.Equal(got, want) {
			t.Errorf("%dx%d: links reported %v, want %v", wh[0], wh[1], got, want)
		}
	}
}
