package sim

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestEngineMetrics: a bare engine registers no families; a one-shard
// set registers the engine's sim_* families, reporting its one engine,
// and none of the schedule's.
func TestEngineMetrics(t *testing.T) {
	if fams := New().Metrics().Snapshot().Families; len(fams) != 0 {
		t.Errorf("a bare engine registered %d families, want none", len(fams))
	}
	s := NewShardSet(1, 100)
	eng := s.Engine(0)
	for i := 0; i < 5; i++ {
		eng.At(Time(i)*1000, func() {})
	}
	s.Run()
	snap := s.Metrics().Snapshot()
	for _, f := range snap.Families {
		if strings.HasPrefix(f.Name, metrics.ShardScheduleFamilyPrefix) {
			t.Errorf("one-shard set registered schedule family %s", f.Name)
		}
	}
	if got := snap.Total(metrics.FamSimEvents); got != 5 {
		t.Errorf("%s = %v, want 5", metrics.FamSimEvents, got)
	}
	if got := snap.Total(metrics.FamSimPending); got != 0 {
		t.Errorf("%s = %v, want 0 after Run", metrics.FamSimPending, got)
	}
	f := snap.Family(metrics.FamSimDelay)
	if f == nil || len(f.Samples) == 0 {
		t.Fatalf("%s missing", metrics.FamSimDelay)
	}
	if f.Samples[0].Count != 5 {
		t.Errorf("delay histogram count = %d, want 5", f.Samples[0].Count)
	}
	if got, ok := snap.Value(metrics.FamSimNow, nil); !ok || got != 4000.0/1e12 {
		t.Errorf("%s = %v (ok=%v), want 4e-9", metrics.FamSimNow, got, ok)
	}
}
