package cluster

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestCrossShardRoundTripsRecycleOnTheirShard: on a 4x4 mesh every node
// at once writes and then reads 12 lines of its point reflection,
// always a node on another shard, all in one cache set, so dirty
// victims leave as posted writebacks while fills are still in flight.
// At 2 shards the reflection is the other half; at 4 (2x2 regions) it
// is the diagonally opposite region, so every frame crosses three
// regions, and a frame between shards 1 and 2 is posted to a shard that
// is neither the sender's nor the coordinator's (shard 0). Each RMC
// free list is touched only by events on its own shard — a client op
// completes on the requester's shard, and a serve op returns to the
// server's pool before the reply leaves — and each delivery is pushed
// onto its heap by the destination shard itself, so the race detector
// must find nothing here, and every access must complete exactly once:
// fault-free, and under drops, corruption and a window that cuts node 1
// off mid-run, where frames are retransmitted and requests abandoned.
func TestCrossShardRoundTripsRecycleOnTheirShard(t *testing.T) {
	const lines = 12 // past the 8 ways of a set: writes evict dirty lines
	cut := faults.Window{Start: 2_000_000, End: 1 << 50}
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"fault-free", nil},
		{"faulted", &faults.Plan{Seed: 5, Drop: 0.02, Corrupt: 0.02, LinkDowns: []faults.LinkWindow{
			{From: 1, To: 2, Window: cut},
			{From: 1, To: 5, Window: cut},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{2, 4} {
				t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
					crossShardRoundTrips(t, shards, tc.plan, lines)
				})
			}
		})
	}
}

// crossShardRoundTrips runs TestCrossShardRoundTripsRecycleOnTheirShard's
// traffic at one shard count under one fault plan (nil: fault-free).
func crossShardRoundTrips(t *testing.T, shards int, plan *faults.Plan, lines int) {
	p := params.Default()
	p.Shards = shards
	p.Faults = plan
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	topo := c.Topology()
	setSpan := uint64(1024) * c.MustNode(1).Caches().LineSize() // DefaultConfig: 1024 sets
	// completions[id][i] counts access i of node id; only node
	// id's shard writes that row.
	completions := make([][]int, topo.Nodes()+1)
	for id := addr.NodeID(1); int(id) <= topo.Nodes(); id++ {
		x, y := topo.Coord(id)
		partner := topo.NodeAt(topo.W-1-x, topo.H-1-y)
		if c.part.ShardOf(id) == c.part.ShardOf(partner) {
			t.Fatalf("nodes %d and %d share a shard", id, partner)
		}
		if shards == 4 && c.part.ShardOf(id)+c.part.ShardOf(partner) != 3 {
			t.Fatalf("nodes %d and %d on shards %d and %d, want diagonally opposite regions", id, partner, c.part.ShardOf(id), c.part.ShardOf(partner))
		}
		n, row := c.MustNode(id), make([]int, 2*lines)
		completions[id] = row
		for i := range row {
			a := addr.Phys(uint64(i%lines) * setSpan).WithNode(partner)
			n.Issue(0, 0, cpu.Access{Addr: a, Write: i < lines}, false, func(sim.Time) { row[i]++ })
		}
	}
	c.Set().Run()

	var requests, served, retransmits, abandoned, writebacks uint64
	for id := addr.NodeID(1); int(id) <= topo.Nodes(); id++ {
		for i, k := range completions[id] {
			if k != 1 {
				t.Errorf("node %d access %d completed %d times", id, i, k)
			}
		}
		n := c.MustNode(id)
		r := n.RMC()
		requests += r.Requests
		served += r.ServedHere
		retransmits += r.Retransmits
		abandoned += r.Abandoned
		writebacks += n.Caches().Writebacks
	}
	if writebacks == 0 {
		t.Fatal("no dirty victim was written back; the test is vacuous")
	}
	if plan == nil {
		// Posted writebacks have no completion to count: each must
		// have been served, as every fill was.
		if served != requests {
			t.Errorf("%d of %d requests served", served, requests)
		}
		return
	}
	if retransmits == 0 || abandoned == 0 {
		t.Errorf("%d retransmits and %d abandons under the plan, want some of each", retransmits, abandoned)
	}
}
