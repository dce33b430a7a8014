package memdir

import (
	"math"
	"testing"

	"repro/internal/addr"
	"repro/internal/mesh"
	"repro/internal/metrics"
)

func dir4x4(t *testing.T) *Directory {
	t.Helper()
	topo, err := mesh.NewTopology(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return New(func(a, b addr.NodeID) int { return topo.Hops(a, b) })
}

func TestRegisterAndTotals(t *testing.T) {
	d := dir4x4(t)
	if err := d.Register(0, 100); err == nil {
		t.Error("node 0 registered")
	}
	d.Register(1, 100)
	d.Register(2, 200)
	if d.Free(2) != 200 || d.TotalFree() != 300 {
		t.Errorf("Free/Total = %d/%d", d.Free(2), d.TotalFree())
	}
	d.Register(2, 50) // update
	if d.Free(2) != 50 {
		t.Error("re-register did not update")
	}
}

func TestFindDonorMostFree(t *testing.T) {
	d := dir4x4(t)
	d.Register(1, 100)
	d.Register(2, 300)
	d.Register(3, 300)
	d.Register(4, 500)
	n, err := d.FindDonor(1, 200, MostFree)
	if err != nil || n != 4 {
		t.Errorf("FindDonor = %d, %v; want 4", n, err)
	}
	// Never self, even if self has the most.
	d.Register(1, 900)
	if n, _ := d.FindDonor(1, 200, MostFree); n == 1 {
		t.Error("directory offered the requester its own memory")
	}
	// Tie-break by lowest id.
	d2 := dir4x4(t)
	d2.Register(1, 10)
	d2.Register(3, 100)
	d2.Register(2, 100)
	if n, _ := d2.FindDonor(1, 50, MostFree); n != 2 {
		t.Errorf("tie-break chose %d, want 2", n)
	}
}

func TestFindDonorNearest(t *testing.T) {
	d := dir4x4(t)
	// Node 1 is at (0,0); node 2 at (1,0) is 1 hop, node 16 at (3,3) is 6.
	d.Register(2, 100)
	d.Register(16, 1000)
	n, err := d.FindDonor(1, 50, Nearest)
	if err != nil || n != 2 {
		t.Errorf("Nearest = %d, %v; want 2", n, err)
	}
	// If the near node can't satisfy, the farther one wins.
	if n, _ := d.FindDonor(1, 500, Nearest); n != 16 {
		t.Errorf("Nearest fallback = %d, want 16", n)
	}
	// Nearest without a distance function is an error.
	d2 := New(nil)
	d2.Register(2, 100)
	if _, err := d2.FindDonor(1, 50, Nearest); err == nil {
		t.Error("Nearest accepted without distance function")
	}
}

func TestFindDonorExhausted(t *testing.T) {
	d := dir4x4(t)
	d.Register(2, 100)
	if _, err := d.FindDonor(1, 200, MostFree); err == nil {
		t.Error("impossible request satisfied")
	}
	if _, err := d.FindDonor(1, 10, Policy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestConsumeRelease(t *testing.T) {
	d := dir4x4(t)
	d.Register(2, 100)
	if err := d.Consume(2, 60); err != nil {
		t.Fatal(err)
	}
	if d.Free(2) != 40 {
		t.Errorf("Free = %d", d.Free(2))
	}
	if err := d.Consume(2, 60); err == nil {
		t.Error("overconsumption accepted")
	}
	if err := d.Consume(9, 1); err == nil {
		t.Error("consume from unregistered node accepted")
	}
	if err := d.ReleaseBytes(2, 60); err != nil {
		t.Fatal(err)
	}
	if d.Free(2) != 100 {
		t.Errorf("Free after release = %d", d.Free(2))
	}
	if err := d.ReleaseBytes(9, 1); err == nil {
		t.Error("release to unregistered node accepted")
	}
	if d.Grants != 1 {
		t.Errorf("Grants = %d", d.Grants)
	}
}

func TestReleaseOverflowRefused(t *testing.T) {
	d := dir4x4(t)
	d.Register(2, 100)
	if err := d.ReleaseBytes(2, math.MaxUint64-10); err == nil {
		t.Error("overflowing release accepted")
	}
	if d.Free(2) != 100 {
		t.Errorf("free count changed by refused release: %d", d.Free(2))
	}
}

// TestInstrumentGated checks the metric families appear only after the
// first directory transaction: idle directories leave the registry
// byte-identical to a build without this layer.
func TestInstrumentGated(t *testing.T) {
	reg := metrics.NewRegistry()
	d := dir4x4(t)
	d.Instrument(reg)
	d.Register(2, 100)
	d.Register(3, 300)
	if n := len(reg.Snapshot().Families); n != 0 {
		t.Fatalf("idle instrumented directory reported %d families, want 0", n)
	}
	if _, err := d.FindDonor(1, 50, MostFree); err != nil {
		t.Fatal(err)
	}
	if err := d.Consume(3, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := d.FindDonor(1, 5000, MostFree); err == nil {
		t.Fatal("impossible request satisfied")
	}
	snap := reg.Snapshot()
	want := map[string]float64{
		metrics.FamMemdirLookups:    2,
		metrics.FamMemdirGrants:     1,
		metrics.FamMemdirRejections: 1,
	}
	for _, f := range snap.Families {
		if v, ok := want[f.Name]; ok {
			if len(f.Samples) != 1 || f.Samples[0].Value != v {
				t.Errorf("%s = %+v, want %v", f.Name, f.Samples, v)
			}
			delete(want, f.Name)
		}
		if f.Name == metrics.FamMemdirGrantedBytes {
			if f.Samples[0].Count != 1 || f.Samples[0].Sum != 50 {
				t.Errorf("granted-bytes histogram = %+v", f.Samples[0])
			}
		}
	}
	for name := range want {
		t.Errorf("family %s missing after transactions", name)
	}
}
