package ncdsm

import (
	"errors"
	"testing"
)

// TestBulkShardGateTyped pins the loud failure mode for -bulk with
// -shards on an experiment that bursts: a typed ShardGateError from the
// RMC, detectable with errors.As through every wrap, instead of a
// silent downgrade to one shard.
func TestBulkShardGateTyped(t *testing.T) {
	bulk, err := ParseBulkSpec("on")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultExperimentOptions()
	opts.Scale = 0.01
	bulk.Apply(&opts.Config)
	opts.Shards = 4
	_, _, err = RunExperiment("I", opts)
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
