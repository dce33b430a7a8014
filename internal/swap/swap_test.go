package swap

import (
	"testing"
	"testing/quick"

	"repro/internal/params"
)

func TestNewPageCacheValidation(t *testing.T) {
	if _, err := NewPageCache(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestTouchHitMiss(t *testing.T) {
	c, err := NewPageCache(2)
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Touch(1, false); r.Hit {
		t.Error("cold touch hit")
	}
	if r := c.Touch(1, false); !r.Hit {
		t.Error("warm touch missed")
	}
	if c.Hits != 1 || c.Misses != 1 || c.Resident() != 1 {
		t.Errorf("counters: hits=%d misses=%d resident=%d", c.Hits, c.Misses, c.Resident())
	}
	if c.idxLookup(1) == nilSlot || c.idxLookup(2) != nilSlot {
		t.Error("residency wrong")
	}
	if c.capacity != 2 {
		t.Error("capacity wrong")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c, _ := NewPageCache(2)
	c.Touch(1, false)
	c.Touch(2, false)
	c.Touch(1, false) // 1 is MRU
	r := c.Touch(3, false)
	if !r.DidEvict || r.Evicted != 2 {
		t.Errorf("evicted %v, want page 2", r)
	}
	if c.idxLookup(1) == nilSlot || c.idxLookup(2) != nilSlot {
		t.Error("LRU order violated")
	}
}

func TestDirtyTracking(t *testing.T) {
	c, _ := NewPageCache(1)
	c.Touch(1, true)
	r := c.Touch(2, false)
	if !r.EvictedDirty {
		t.Error("dirty eviction not flagged")
	}
	if c.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", c.DirtyEvictions)
	}
	// A read-only page evicts clean.
	r = c.Touch(3, false)
	if r.EvictedDirty {
		t.Error("clean page flagged dirty")
	}
	// Write to a resident page marks it dirty.
	c.Touch(3, true)
	if r := c.Touch(4, false); !r.EvictedDirty {
		t.Error("late write lost")
	}
}

func TestFlush(t *testing.T) {
	c, _ := NewPageCache(8)
	c.Touch(1, true)
	c.Touch(2, false)
	c.Touch(3, true)
	if dirty := c.Flush(); dirty != 2 {
		t.Errorf("Flush returned %d dirty, want 2", dirty)
	}
	if c.Resident() != 0 || c.idxLookup(1) != nilSlot {
		t.Error("flush left pages resident")
	}
	// The cache is immediately reusable.
	if r := c.Touch(1, false); r.Hit || c.Resident() != 1 {
		t.Error("a flushed page hit, or the touch after a flush left it non-resident")
	}
}

func TestResidencyNeverExceedsCapacityProperty(t *testing.T) {
	f := func(pages []uint16, capSel uint8) bool {
		capacity := int(capSel%16) + 1
		c, err := NewPageCache(capacity)
		if err != nil {
			return false
		}
		for _, p := range pages {
			c.Touch(uint64(p%64), p%3 == 0)
			if c.Resident() > capacity {
				return false
			}
		}
		return c.Hits+c.Misses == uint64(len(pages))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeviceCosts(t *testing.T) {
	p := params.Default()
	r1 := RemoteDevice{P: p, Hops: 1}
	r3 := RemoteDevice{P: p, Hops: 3}
	if r3.FaultCost() <= r1.FaultCost() {
		t.Error("farther swap device not slower")
	}
	if r1.FaultCost() != p.SwapPageTransfer+2*p.HopLatency {
		t.Errorf("remote fault cost = %d", r1.FaultCost())
	}
	d := DiskDevice{P: p}
	if d.FaultCost() != p.DiskLatency || d.WritebackCost() != p.DiskLatency {
		t.Error("disk costs wrong")
	}
	if r1.Name() == d.Name() {
		t.Error("devices share a name")
	}
}
