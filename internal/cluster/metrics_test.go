package cluster

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestMetricsInstrumentation drives local, remote, and phase-change
// traffic through one node and checks every cache/node family registered
// from the cluster layer reports it.
func TestMetricsInstrumentation(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	noop := func(sim.Time) {}

	n.Issue(0, 0, cpu.Access{Addr: 0x4000}, false, noop) // local miss
	c.Set().Run()
	remote := addr.Phys(0x8000).WithNode(2)
	n.Issue(c.Set().Now(), 0, cpu.Access{Addr: remote, Write: true}, false, noop)
	c.Set().Run()
	if flushed := n.FlushCaches(c.Set().Now()); flushed == 0 {
		t.Fatal("no dirty lines to flush")
	}

	snap := c.Set().Metrics().Snapshot()
	val := func(name string) float64 {
		v, _ := snap.Value(name, metrics.L("node", "1"))
		return v
	}
	if val(metrics.FamCacheAccesses) == 0 {
		t.Error("cache accesses not counted")
	}
	if val(metrics.FamCacheMisses) == 0 {
		t.Error("cache misses not counted")
	}
	if val(metrics.FamNodeLocalOps) != 1 {
		t.Errorf("local ops = %v, want 1", val(metrics.FamNodeLocalOps))
	}
	if val(metrics.FamNodeRemoteOps) != 1 {
		t.Errorf("remote ops = %v, want 1", val(metrics.FamNodeRemoteOps))
	}
	if val(metrics.FamCacheFlushedDirty) == 0 {
		t.Error("flushed dirty lines not counted")
	}
	// The per-node rollup view carries the same numbers.
	var found bool
	for _, nv := range snap.Nodes() {
		if nv.Node == 1 {
			found = true
			if nv.CacheAccesses == 0 || nv.RemoteOps != 1 {
				t.Errorf("node view = %+v", nv)
			}
		}
	}
	if !found {
		t.Error("node 1 missing from Nodes() view")
	}
}

// TestDRAMMetrics checks the controller families the cluster reports
// for every node's memory controllers: two accesses to one row of
// node 1's socket-0 controller are a read, a write and a row hit, under
// labels in key order (mc, then node).
func TestDRAMMetrics(t *testing.T) {
	c := build(t)
	ctl := &c.MustNode(1).Bank().Controllers()[0]
	ctl.Access(0, addr.Phys(0), false)
	ctl.Access(0, addr.Phys(64), true)

	snap := c.Set().Metrics().Snapshot()
	ls := metrics.L("node", "1", "mc", "0")
	for fam, want := range map[string]float64{
		metrics.FamDRAMReads:        1,
		metrics.FamDRAMWrites:       1,
		metrics.FamDRAMRowHits:      1,
		metrics.FamDRAMRowConflicts: 0,
	} {
		if got, ok := snap.Value(fam, ls); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", fam, got, ok, want)
		}
	}
	f := snap.Family(metrics.FamDRAMReads)
	if want := c.Nodes() * c.Params().SocketsPerNode; len(f.Samples) != want {
		t.Errorf("%d controller samples, want %d", len(f.Samples), want)
	}
	if got := f.Samples[0].Labels; len(got) != 2 || got[0].Key != "mc" || got[1].Key != "node" {
		t.Errorf("labels %v not in key order", got)
	}
}
