package ncdsm

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestFiguresGolden pins every experiment's numbers: it runs each id in
// Experiments() at scale 0.05 with the default seed and machine, and
// compares each figure's rendered table with testdata/figures.txt,
// together with the SHA-256 of the figure's merged Prometheus dump
// (TestMetricsGolden pins how each family renders; this pins what every
// figure's runs counted). A change to any default that moves a result
// fails here, even when it moves it identically at every -parallel and
// -shards setting. A change that re-baselines simulated results
// regenerates the file with -update-golden, together with the 4×3
// metrics files and benchmark/pins.json.
func TestFiguresGolden(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.Scale = 0.05
	var b strings.Builder
	for _, id := range Experiments() {
		fig, snap, err := RunExperiment(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(&b, "=== %s\n%sprometheus sha256 %x\n\n", id, fig.Render(), sha256.Sum256([]byte(snap.Prometheus())))
	}
	checkGolden(t, "testdata/figures.txt", b.String())
}
