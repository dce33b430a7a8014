package mesh

import (
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
)

// Burst data frames are just bigger frames to the fabric — no second
// wire protocol — so link occupancy must scale with their payload and
// a burst must contend with scalar traffic on shared links.

// TestBurstFrameOccupancy: a 16-line (1 KiB payload) burst frame holds
// a link ~16x longer than a single-line frame; occupancy is charged in
// cache-line units of wire bytes.
func TestBurstFrameOccupancy(t *testing.T) {
	p := params.Default()
	eng := sim.New()
	f := NewFabric(eng.Metrics(), topo4x4(t), p, nil)

	scalarWire := 64 + 16   // one line + headers
	burstWire := 16*64 + 16 // one 16-line data frame + headers
	scalarDone := f.DeliverOutcome(0, 1, 2, scalarWire).Arrive
	eng2 := sim.New()
	f2 := NewFabric(eng2.Metrics(), topo4x4(t), p, nil)
	burstDone := f2.DeliverOutcome(0, 1, 2, burstWire).Arrive

	scalarUnits := sim.Time((scalarWire + params.CacheLineSize - 1) / params.CacheLineSize)
	burstUnits := sim.Time((burstWire + params.CacheLineSize - 1) / params.CacheLineSize)
	if burstDone-scalarDone != (burstUnits-scalarUnits)*p.LinkOccupancy {
		t.Errorf("burst frame done at %d vs scalar %d; occupancy not proportional to wire bytes", burstDone, scalarDone)
	}
}

// TestBurstContendsWithScalarTraffic: a burst frame and a scalar frame
// issued together on the same link serialize — the scalar frame waits
// out the burst's full occupancy, which is exactly the contention the
// cluster's burst scheduler has to price.
func TestBurstContendsWithScalarTraffic(t *testing.T) {
	p := params.Default()
	eng := sim.New()
	f := NewFabric(eng.Metrics(), topo4x4(t), p, nil)

	burstWire := 16*64 + 16
	scalarWire := 64 + 16
	burstDone := f.DeliverOutcome(0, 1, 2, burstWire).Arrive
	queuedDone := f.DeliverOutcome(0, 1, 2, scalarWire).Arrive

	// Alone, the scalar frame finishes in hop latency + its own (small)
	// occupancy; behind the burst it cannot finish before the burst does.
	eng2 := sim.New()
	alone := NewFabric(eng2.Metrics(), topo4x4(t), p, nil).DeliverOutcome(0, 1, 2, scalarWire).Arrive
	if queuedDone <= alone {
		t.Errorf("scalar frame behind a burst finished at %d, alone at %d; no contention", queuedDone, alone)
	}
	if queuedDone <= burstDone {
		t.Errorf("scalar frame (%d) overtook the burst occupying the link (%d)", queuedDone, burstDone)
	}

	// The link accounted every byte of both frames.
	elapsed := queuedDone
	u, err := f.LinkUtilization(1, 2, elapsed)
	if err != nil {
		t.Fatal(err)
	}
	if u <= 0 || u > 1 {
		t.Errorf("link utilization %v after burst + scalar traffic", u)
	}
}
