package dram

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/params"
	"repro/internal/sim"
)

func TestControllerLatencyAndQueueing(t *testing.T) {
	p := params.Default()
	c := NewController(p)

	// Uncontended access completes after occupancy + latency.
	done := c.Access(0, addr.Phys(0), false)
	if want := p.DRAMOccupancy + p.DRAMLatency; done != want {
		t.Errorf("first access done = %d, want %d", done, want)
	}
	// A simultaneous second access queues behind the first's occupancy.
	done2 := c.Access(0, addr.Phys(64), true)
	if want := 2*p.DRAMOccupancy + p.DRAMLatency; done2 != want {
		t.Errorf("queued access done = %d, want %d", done2, want)
	}
	if c.Reads != 1 || c.Writes != 1 {
		t.Errorf("counters = %d/%d", c.Reads, c.Writes)
	}
	if c.res.Utilization(2*p.DRAMOccupancy) != 1 {
		t.Error("controller should be fully occupied")
	}
}

func TestRowBufferTracking(t *testing.T) {
	p := params.Default()
	c := NewController(p)

	// Same row twice, then a different row, then back: cold, hit,
	// conflict, conflict.
	c.Access(0, addr.Phys(0), false)
	c.Access(0, addr.Phys(64), false)
	c.Access(0, addr.Phys(RowBytes), false)
	c.Access(0, addr.Phys(128), false)
	if c.RowHits != 1 || c.RowConflicts != 2 {
		t.Errorf("row stats = %d hits / %d conflicts, want 1/2", c.RowHits, c.RowConflicts)
	}
	// Tracking must not change timing: completion matches the flat model.
	done := c.Access(0, addr.Phys(192), false)
	if want := 5*p.DRAMOccupancy + p.DRAMLatency; done != want {
		t.Errorf("timed completion = %d, want %d", done, want)
	}
}

func TestBankSocketInterleaving(t *testing.T) {
	p := params.Default() // 4 sockets × 4 GB
	b := NewBank(p)

	if len(b.Controllers()) != 4 {
		t.Fatalf("controllers = %d", len(b.Controllers()))
	}
	// Touch one address per socket range; each controller sees one read.
	for s := 0; s < 4; s++ {
		a := addr.Phys(uint64(s) * (4 << 30))
		if _, err := b.Access(0, a, false); err != nil {
			t.Fatalf("access socket %d: %v", s, err)
		}
	}
	for s := range b.Controllers() {
		if c := &b.Controllers()[s]; c.Reads != 1 {
			t.Errorf("socket %d saw %d reads, want 1", s, c.Reads)
		}
	}
	r, w := b.Stats()
	if r != 4 || w != 0 {
		t.Errorf("Stats = %d/%d", r, w)
	}
}

func TestBankParallelismAcrossSockets(t *testing.T) {
	p := params.Default()
	b := NewBank(p)
	// Two simultaneous accesses to different sockets don't queue on each
	// other; two to the same socket do.
	d1, _ := b.Access(0, addr.Phys(0), false)
	d2, _ := b.Access(0, addr.Phys(4<<30), false)
	if d1 != d2 {
		t.Errorf("cross-socket accesses serialized: %d vs %d", d1, d2)
	}
	d3, _ := b.Access(0, addr.Phys(64), false)
	if d3 <= d1 {
		t.Errorf("same-socket access did not queue: %d", d3)
	}
}

func TestBankRejections(t *testing.T) {
	p := params.Default()
	b := NewBank(p)
	if _, err := b.Access(0, addr.Phys(0x100).WithNode(3), false); err == nil {
		t.Error("prefixed address accepted by local bank")
	}
	if _, err := b.Access(0, addr.Phys(p.MemPerNode), false); err == nil {
		t.Error("beyond-memory address accepted")
	}
}

// TestBankAccessLines: a line run is the per-line accesses it replaces —
// same completion, same controller state — pipelined behind occupancy,
// and it fails where its first line beyond installed memory would.
func TestBankAccessLines(t *testing.T) {
	p := params.Default()
	run, ref := NewBank(p), NewBank(p)
	start := addr.Phys(4<<30 - 2*64) // straddles the socket 0/1 boundary
	done, err := run.AccessLines(10, start, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Time(10)
	for i := 0; i < 5; i++ {
		d, _ := ref.Access(10, start+addr.Phys(i*64), true)
		want = max(want, d)
	}
	if done != want {
		t.Errorf("AccessLines done = %d, per-line accesses = %d", done, want)
	}
	for s := range run.Controllers() {
		c, r := &run.Controllers()[s], &ref.Controllers()[s]
		if got, want := [3]uint64{c.Writes, c.RowHits, c.RowConflicts}, [3]uint64{r.Writes, r.RowHits, r.RowConflicts}; got != want {
			t.Errorf("socket %d writes/row hits/conflicts = %v, per-line %v", s, got, want)
		}
	}
	if done, err := run.AccessLines(7, 0, 0, false); err != nil || done != 7 {
		t.Errorf("empty run = %d, %v; want 7, nil", done, err)
	}
	if _, err := run.AccessLines(0, addr.Phys(p.MemPerNode-64), 2, false); err == nil {
		t.Error("run past installed memory accepted")
	}
}
