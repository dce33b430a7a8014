package ncdsm

import (
	"errors"
	"testing"
)

// TestBulkShardGateTyped pins the loud failure mode for -bulk with
// -shards: a typed ShardGateError detectable with errors.As, instead of
// a silent downgrade to one shard.
func TestBulkShardGateTyped(t *testing.T) {
	bulk, err := ParseBulkSpec("on")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultExperimentOptions()
	opts.Scale = 0.01
	opts.Bulk = bulk
	opts.Shards = 4
	_, _, err = RunExperiment("table1", opts)
	var gate *ShardGateError
	if !errors.As(err, &gate) {
		t.Fatalf("RunExperiment with -bulk -shards 4 = %v, want a *ShardGateError", err)
	}
	if gate.Shards != 4 {
		t.Errorf("gate.Shards = %d, want 4", gate.Shards)
	}
}

// TestBulkShardGateAtRuntime checks the RMC-level gate: a burst issued
// on a multi-shard system fails with the same typed error.
func TestBulkShardGateAtRuntime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	p := growMapped(t, region, 2, 1<<20)
	sink := make([]byte, 4096)
	err = region.ReadBulk(p, []Span{{Offset: 0, Bytes: 4096}}, sink)
	var gate *ShardGateError
	if !errors.As(err, &gate) {
		t.Fatalf("ReadBulk on 4 shards = %v, want a *ShardGateError", err)
	}
}

// TestWindowModeFacadeIdentity renders the same experiment through the
// public API under every -window mode and requires identical figures —
// the schedule is a performance knob, never a results knob.
func TestWindowModeFacadeIdentity(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.Scale = 0.01
	opts.Shards = 4
	want, err := Experiment("table1", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"uniform", "elide"} {
		mode, err := ParseWindowMode(name)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Window = mode
		got, err := Experiment("table1", o)
		if err != nil {
			t.Fatalf("window=%s: %v", mode, err)
		}
		if got != want {
			t.Errorf("window=%s: figure differs from the default schedule", mode)
		}
	}
	if _, err := ParseWindowMode("sideways"); err == nil {
		t.Error("ParseWindowMode accepted an unknown mode")
	}
}
