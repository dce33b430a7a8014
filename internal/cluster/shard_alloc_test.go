package cluster

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestCrossShardExchangeSteadyStateAllocs drives remote round trips
// across a 2-shard partition and requires the steady state to allocate
// nothing: the exchange records intents into reused slices, deliveries
// fire from the client op's own send ops, and each RMC's op pools absorb
// the traffic on its own shard — the requester's client op and the
// server's serve op, neither returned across shards.
func TestCrossShardExchangeSteadyStateAllocs(t *testing.T) {
	p := params.Default()
	p.Shards = 2
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	set := c.Set()
	// On the 4x4 mesh split 2x1, node 1 (0,0) is on shard 0 and node 3
	// (2,0) on shard 1; every access below crosses the partition.
	n := c.MustNode(1)
	if c.part.ShardOf(1) == c.part.ShardOf(3) {
		t.Fatal("nodes 1 and 3 share a shard; the test needs a cross-shard pair")
	}
	remote := addr.Phys(0x10000).WithNode(3)
	noop := func(sim.Time) {}

	roundTrip := func() {
		n.Issue(set.Now(), 0, cpu.Access{Addr: remote, Write: false}, false, noop)
		set.Run()
	}
	// Warm the pools: event heaps, exchange slices, op free lists, and
	// the cache sets the access path touches.
	for i := 0; i < 50; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Errorf("cross-shard round trip allocates %.2f objects steady-state, want 0", avg)
	}
}
