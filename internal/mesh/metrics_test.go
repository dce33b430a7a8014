package mesh

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestMetricsInstrumentation delivers one frame across the mesh and
// checks the per-link and fabric-wide counters.
func TestMetricsInstrumentation(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng, topo4x4(t), params.Default(), nil)
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
