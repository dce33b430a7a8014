package cluster

import (
	"runtime"
	"testing"

	"repro/internal/params"
)

// TestNew32x32Footprint pins what building the 1024-node fabric costs
// before it runs: cache tag storage materializes per line on first fill,
// so New pays for nodes, RMCs and links, not 4096 sockets' full tag
// arrays (768 KiB a node when they were allocated eagerly, ~790 MiB in
// all). The bound leaves about 3x headroom over the ~21 MiB measured.
func TestNew32x32Footprint(t *testing.T) {
	const bound = 64 << 20
	p := params.Default()
	p.MeshWidth, p.MeshHeight = 32, 32
	p.Shards = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 1024 {
		t.Fatalf("Nodes = %d, want 1024", c.Nodes())
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("New on a 32x32 mesh allocated %.1f MiB", float64(n)/(1<<20))
	if n > bound {
		t.Errorf("New on a 32x32 mesh allocated %d MiB, want <= %d MiB", n>>20, bound>>20)
	}
}
