package palloc

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/params"
)

func newAlloc(t *testing.T, start, size uint64) *Allocator {
	t.Helper()
	a, err := New(addr.Range{Start: addr.Phys(start), Size: size})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(addr.Range{Start: 0, Size: 0}); err == nil {
		t.Error("empty zone accepted")
	}
	if _, err := New(addr.Range{Start: 1, Size: params.PageSize}); err == nil {
		t.Error("unaligned start accepted")
	}
	if _, err := New(addr.Range{Start: 0, Size: params.PageSize + 1}); err == nil {
		t.Error("unaligned size accepted")
	}
	if _, err := New(addr.Range{Start: addr.Phys(0).WithNode(2), Size: params.PageSize}); err == nil {
		t.Error("prefixed zone accepted")
	}
}

func TestFirstFitAndRounding(t *testing.T) {
	a := newAlloc(t, 0, 16*params.PageSize)
	r1, err := a.Alloc(100) // rounds to one page
	if err != nil {
		t.Fatal(err)
	}
	if r1.Size != params.PageSize || r1.Start != 0 {
		t.Errorf("first alloc = %v", r1)
	}
	r2, _ := a.Alloc(2 * params.PageSize)
	if r2.Start != params.PageSize {
		t.Errorf("second alloc = %v, want adjacent first-fit", r2)
	}
	if a.Free() != 13*params.PageSize {
		t.Errorf("Free = %d", a.Free())
	}
	if a.Allocated != 3*params.PageSize {
		t.Errorf("Allocated = %d", a.Allocated)
	}
}

func TestExhaustion(t *testing.T) {
	a := newAlloc(t, 0, 4*params.PageSize)
	if _, err := a.Alloc(5 * params.PageSize); err == nil {
		t.Error("oversized alloc accepted")
	}
	if _, err := a.Alloc(0); err == nil {
		t.Error("zero alloc accepted")
	}
	if _, err := a.Alloc(4 * params.PageSize); err != nil {
		t.Errorf("exact-fit alloc failed: %v", err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Error("alloc from empty allocator accepted")
	}
}

func TestReleaseAndCoalesce(t *testing.T) {
	a := newAlloc(t, 0, 8*params.PageSize)
	r1, _ := a.Alloc(2 * params.PageSize)
	r2, _ := a.Alloc(2 * params.PageSize)
	r3, _ := a.Alloc(2 * params.PageSize)
	// Free the middle, then its neighbors; everything must coalesce so a
	// full-size alloc succeeds again.
	for _, r := range []addr.Range{r2, r1, r3} {
		if err := a.Release(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(8 * params.PageSize); err != nil {
		t.Errorf("coalescing failed: %v", err)
	}
}

func TestFragmentationIsVisible(t *testing.T) {
	a := newAlloc(t, 0, 6*params.PageSize)
	var got []addr.Range
	for i := 0; i < 6; i++ {
		r, err := a.Alloc(params.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	// Free every other page: 3 pages free, largest extent 1 page.
	for i := 0; i < 6; i += 2 {
		if err := a.Release(got[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.Free() != 3*params.PageSize {
		t.Errorf("Free = %d", a.Free())
	}
	if a.LargestExtent() != params.PageSize {
		t.Errorf("LargestExtent = %d", a.LargestExtent())
	}
	if _, err := a.Alloc(2 * params.PageSize); err == nil {
		t.Error("fragmented allocator satisfied a contiguous request it cannot hold")
	}
}

func TestReleaseErrors(t *testing.T) {
	a := newAlloc(t, params.PageSize, 4*params.PageSize)
	r, _ := a.Alloc(params.PageSize)
	if err := a.Release(addr.Range{Start: 0, Size: params.PageSize}); err == nil {
		t.Error("release outside zone accepted")
	}
	if err := a.Release(addr.Range{Start: r.Start + 1, Size: params.PageSize}); err == nil {
		t.Error("unaligned release accepted")
	}
	if err := a.Release(r); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(r); err == nil {
		t.Error("double free accepted")
	}
}

// TestContains: every extent Alloc hands out lies inside the zone, up
// to exhaustion, for a zone that does not start at address 0.
func TestContains(t *testing.T) {
	a := newAlloc(t, params.PageSize, 4*params.PageSize)
	for n := 0; ; n++ {
		r, err := a.Alloc(params.PageSize)
		if err != nil {
			if n != 4 {
				t.Errorf("zone of 4 pages exhausted after %d", n)
			}
			break
		}
		if r.Start < a.zone.Start || r.End() > a.zone.End() {
			t.Fatalf("extent %v outside zone %v", r, a.zone)
		}
	}
}

// TestConservationProperty: free + allocated is invariant, allocations
// never overlap, and full release restores the zone.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const zone = 64 * params.PageSize
		a, err := New(addr.Range{Start: 0, Size: zone})
		if err != nil {
			return false
		}
		var live []addr.Range
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				size := uint64(op%8+1) * params.PageSize
				r, err := a.Alloc(size)
				if err != nil {
					continue // exhaustion is fine
				}
				for _, o := range live {
					if o.Overlaps(r) {
						return false
					}
				}
				live = append(live, r)
			} else {
				i := int(op) % len(live)
				if err := a.Release(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			var liveBytes uint64
			for _, o := range live {
				liveBytes += o.Size
			}
			if a.Free()+liveBytes != zone || a.Allocated != liveBytes {
				return false
			}
		}
		for _, o := range live {
			if err := a.Release(o); err != nil {
				return false
			}
		}
		return a.Free() == zone && a.LargestExtent() == zone
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
