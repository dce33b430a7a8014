package memmodel

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/params"
)

func TestBulkModelAmortization(t *testing.T) {
	p := params.Default()
	m, err := NewBulkModel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	one := m.BulkRead(1)
	sixtyFour := m.BulkRead(64)
	if one <= 0 || sixtyFour <= one {
		t.Fatalf("BulkRead(1)=%d, BulkRead(64)=%d; want positive and monotone", one, sixtyFour)
	}
	// The redesign's whole point: per-line cost collapses with burst size.
	if perLine := sixtyFour / 64; perLine*4 >= one {
		t.Errorf("per-line cost in a 64-line burst = %d ps vs %d ps single; want at least 4x amortization", perLine, one)
	}
	// Against the analytic scalar model: one burst of 64 lines beats 64
	// dependent analytic round trips.
	scalar := params.Duration(64) * p.RemoteRoundTrip(1)
	if sixtyFour*4 >= scalar {
		t.Errorf("simulated burst %d ps vs analytic 64 round trips %d ps; want at least 4x cheaper", sixtyFour, scalar)
	}
}

func TestBulkModelCachesAndScales(t *testing.T) {
	p := params.Default()
	m, err := NewBulkModel(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := m.BulkRead(128)
	b := m.BulkRead(128)
	if a != b {
		t.Errorf("cached price differs: %d vs %d", a, b)
	}
	near, _ := NewBulkModel(p, 1)
	if near.BulkRead(128) >= m.BulkRead(128) {
		t.Error("price not monotone in hop distance")
	}
	// Transfers past one burst's geometry still price (split bursts).
	big := m.BulkRead(p.BurstMaxLines() + 64)
	if big <= m.BulkRead(p.BurstMaxLines()) {
		t.Error("multi-burst transfer not dearer than one burst")
	}
}

func TestBulkModelLocal(t *testing.T) {
	p := params.Default()
	m, err := NewBulkModel(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Local bursts pipeline behind bank occupancy: 64 lines cost at
	// least 64 occupancy slots, far below 64 full DRAM latencies.
	c := m.BulkRead(64)
	if c < 64*params.Duration(p.DRAMOccupancy) {
		t.Errorf("local 64-line burst = %d ps, below the bank's occupancy floor", c)
	}
	if c >= 64*params.Duration(p.DRAMLatency) {
		t.Errorf("local 64-line burst = %d ps; lines did not pipeline", c)
	}
	if m.Name() != "bulk local" {
		t.Errorf("Name = %q", m.Name())
	}
	if _, err := NewBulkModel(p, -1); err == nil {
		t.Error("negative hops accepted")
	}
}

// TestBulkModelPricesTheCalibration pins what the pricing rig takes from
// its parameters: the calibration and the link latencies of the mesh's
// first row, where the rig's nodes sit. A fault plan, a shard count, and
// link overrides off that row leave the price alone.
func TestBulkModelPricesTheCalibration(t *testing.T) {
	plan, err := faults.Parse("seed=3,drop=0.5")
	if err != nil {
		t.Fatal(err)
	}
	price := func(faulted bool, linkLat string) params.Duration {
		t.Helper()
		p := params.Default()
		if faulted {
			p.Faults, p.Shards = plan, 4
		}
		var err error
		if p.LinkLat, err = params.ParseLinkLat(linkLat); err != nil {
			t.Fatal(err)
		}
		m, err := NewBulkModel(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return m.BulkRead(64)
	}
	base := price(false, "")
	if armed := price(true, ""); armed != base {
		t.Errorf("armed plan on 4 shards priced %d, want the fault-free %d", armed, base)
	}
	onRow := price(false, "edge=1.0-2.0:900ns")
	if onRow <= base {
		t.Errorf("a slow link on the rig's row priced %d, want above %d", onRow, base)
	}
	if offRow := price(false, "edge=1.0-2.0:900ns,edge=3.2-3.3:30ns"); offRow != onRow {
		t.Errorf("a link off the rig's row moved the price from %d to %d", onRow, offRow)
	}
}
