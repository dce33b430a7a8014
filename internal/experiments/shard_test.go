package experiments

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/params"
)

// stripShardSchedule removes the ncdsm_shard_* families from a
// Prometheus rendering. Barrier and elision counts are properties of
// the multi-shard schedule — inherently shard-count-dependent — so the
// identity contract covers everything except them (they do not even
// exist at one shard).
func stripShardSchedule(prom string) string {
	var b strings.Builder
	for _, line := range strings.Split(prom, "\n") {
		if strings.Contains(line, metrics.ShardScheduleFamilyPrefix) {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// shardRun renders one experiment plus its merged metrics under k
// shards. Figures AND metrics must be byte-identical at every shard
// count — the determinism contract of DESIGN §16.
func shardRun(t *testing.T, id string, o Options, k int) (string, string) {
	t.Helper()
	gen, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	o.P.Shards = k
	var merged metrics.Merged
	o.Metrics = &merged
	fig, err := gen(o)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", id, k, err)
	}
	return fig.Render(), stripShardSchedule(merged.Snapshot().Prometheus())
}

// TestShardCountByteIdentity re-renders table1 and fig7 at 1, 2, and 4
// shards — fault-free and under an armed fault plan, serial and with
// concurrent sweep points — and requires byte-identical figures and
// metrics throughout. One more input puts a retransmit timeout below
// the mesh hop on a faulted 8x8 scale run: the fault plan's cap, not a
// hop-wide window, must keep every timer in its shard's future, at one
// shard as at four.
func TestShardCountByteIdentity(t *testing.T) {
	plan, err := faults.Parse("seed=2,drop=0.02,corrupt=0.002")
	if err != nil {
		t.Fatal(err)
	}
	identical := func(t *testing.T, id string, o Options, ks ...int) {
		wantFig, wantMet := shardRun(t, id, o, 1)
		for _, k := range ks {
			gotFig, gotMet := shardRun(t, id, o, k)
			if gotFig != wantFig {
				t.Errorf("shards=%d: figure differs from shards=1:\n--- 1 ---\n%s\n--- %d ---\n%s", k, wantFig, k, gotFig)
			}
			if gotMet != wantMet {
				t.Errorf("shards=%d: merged metrics differ from shards=1", k)
			}
		}
	}
	for _, id := range []string{"table1", "fig7"} {
		for _, faulted := range []bool{false, true} {
			for _, parallel := range []int{1, 4} {
				id, faulted, parallel := id, faulted, parallel
				name := id
				if faulted {
					name += "/faulted"
				}
				if parallel > 1 {
					name += "/parallel"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					o := DefaultOptions()
					o.Scale = 0.01
					o.Parallel = parallel
					if faulted {
						o.P.Faults = plan
					}
					identical(t, id, o, 2, 4)
				})
			}
		}
	}
	t.Run("scale/faulted/timeout-under-hop", func(t *testing.T) {
		t.Parallel()
		o := DefaultOptions()
		o.Scale = 0.01
		o.P.MeshWidth, o.P.MeshHeight = 8, 8
		o.P.Faults = plan
		o.P.HopLatency = 120 * params.Nanosecond
		o.P.RetransmitTimeout = 50 * params.Nanosecond
		identical(t, "scale", o, 4)
		var merged metrics.Merged
		o.Metrics = &merged
		if _, err := Scale(o); err != nil {
			t.Fatal(err)
		}
		if merged.Snapshot().Total(metrics.FamRMCRetransmits) == 0 {
			t.Error("no frame was retransmitted: the timeout was never exercised")
		}
	})
}

// TestScaleExperimentLargeMesh is the 1024-RMC smoke: the whole-fabric
// workload on a 32x32 mesh at 16 shards must complete and match the
// single-shard rendering.
func TestScaleExperimentLargeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node smoke skipped in -short mode")
	}
	o := DefaultOptions()
	o.Scale = 0.005
	o.Parallel = 1
	o.P.MeshWidth, o.P.MeshHeight = 32, 32
	wantFig, wantMet := shardRun(t, "scale", o, 1)
	gotFig, gotMet := shardRun(t, "scale", o, 16)
	if gotFig != wantFig {
		t.Errorf("32x32 scale: figure differs between shards 1 and 16:\n--- 1 ---\n%s\n--- 16 ---\n%s", wantFig, gotFig)
	}
	if gotMet != wantMet {
		t.Error("32x32 scale: merged metrics differ between shards 1 and 16")
	}
}
