package ncdsm

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics_*.prom and testdata/figures.txt from the current build")

// checkGolden compares got with the golden file, or rewrites the file
// under -update-golden. A mismatch reports the first differing line
// and, when the file has "=== id" section headers, the section it is in.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	section := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s: line %d%s is %q, want %q", file, i+1, section, g, w)
			return
		}
		if strings.HasPrefix(w, "=== ") {
			section = " (" + strings.TrimPrefix(w, "=== ") + ")"
		}
	}
}

// goldenFaultSpec is the fault plan ncdsm-perf arms Figure 7 with. On
// the 4×3 mesh its down link 2-6 lies on the XY route from node 1 to
// node 6, and node 6 runs its NACK storm, so the golden traffic reroutes
// and retries.
const goldenFaultSpec = "seed=7,drop=0.01,corrupt=0.002,delayp=0.02,delay=300ns,down=2-6@0:50us,storm=6@20us:40us,stall=2@10us:60us"

// goldenDump runs fixed traffic on a faulted 4×3 mesh and returns the
// Prometheus rendering of its metrics: an idle express link between
// nodes 1 and 12, one region on node 6, one reservation through the
// directory (which picks node 1), timed remote loads and stores, and
// (when bulk is set) one scatter-gather write burst.
func goldenDump(t *testing.T, shards int, bulk bool) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight, cfg.Shards = 4, 3, shards
	plan, err := ParseFaultPlan(goldenFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := sys.Core().Cluster().MeshFabric()
	if err != nil {
		t.Fatal(err)
	}
	if err := fabric.AddExpressLink(1, 12); err != nil {
		t.Fatal(err)
	}
	region, err := sys.Region(6)
	if err != nil {
		t.Fatal(err)
	}
	p, donor, err := region.Grow(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if donor != 1 {
		t.Fatalf("directory picked donor %d, want 1", donor)
	}
	for i := 0; i < 48; i++ {
		req := AccessRequest{Pointer: p + Pointer(i*4096+(i%3)*64), Write: i%4 == 3}
		if err := region.Access(req); err != nil {
			t.Fatal(err)
		}
	}
	if bulk {
		data := make([]byte, 3*4096)
		spans := []Span{{Offset: 256 << 10, Bytes: 4096}, {Offset: 320 << 10, Bytes: 2 * 4096}}
		if err := region.WriteBulk(p, spans, data); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	return sys.Metrics().Prometheus()
}

// TestMetricsGolden pins the full metrics dump byte for byte. The 4×3
// mesh numbers nodes 1–12, so label order (1,10,11,12,2,…) differs from
// numeric order. Run (a) is one shard with a bulk burst; run (b) is the
// same traffic on two shards without it (bursts refuse K>1), adding the
// shard-schedule families and the merged event-delay histogram.
// Together they cover every registration kind: per-node, per-controller
// and per-link (mesh and express) families, fault families, lazily present bulk and
// directory families, region gauges and engine histograms. A change that
// re-baselines simulated results regenerates both files with
// -update-golden, together with benchmark/pins.json.
func TestMetricsGolden(t *testing.T) {
	for _, tc := range []struct {
		file   string
		shards int
		bulk   bool
	}{
		{"testdata/metrics_4x3_k1.prom", 1, true},
		{"testdata/metrics_4x3_k2.prom", 2, false},
	} {
		checkGolden(t, tc.file, goldenDump(t, tc.shards, tc.bulk))
	}
}
