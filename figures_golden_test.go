package ncdsm

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestFiguresGolden pins every experiment's numbers: it runs each id in
// Experiments() at scale 0.05 with the default seed and machine, and
// compares each figure's rendered table with testdata/figures.txt,
// together with the SHA-256 of the figure's merged Prometheus dump and
// of its merged snapshot's JSON (TestMetricsGolden pins how each family
// renders; this pins what every figure's runs counted, and every byte of
// both renderings). A change to any default that moves a result
// fails here, even when it moves it identically at every -parallel and
// -shards setting. A change that re-baselines simulated results
// regenerates the file with -update-golden, together with the 4×3
// metrics files and benchmark/pins.json.
//
// Every id then runs again at 4 shards on the same 4×4 mesh and must
// reproduce its golden entry: sharding may move only the sharded
// engine's own ncdsm_shard_* counters, which both hashes leave out. F's
// HT-over-Ethernet fabric and I's bulk plane run on one shard only and
// must refuse with a *ShardGateError.
func TestFiguresGolden(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.Scale = 0.05
	var b strings.Builder
	for _, id := range Experiments() {
		entry, err := figureEntry(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString(entry)
	}
	checkGolden(t, "testdata/figures.txt", b.String())

	golden, err := os.ReadFile("testdata/figures.txt")
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = 4
	for _, id := range Experiments() {
		entry, err := figureEntry(id, opts)
		var gate *ShardGateError
		switch {
		case id == "F" || id == "I":
			if !errors.As(err, &gate) {
				t.Errorf("%s at 4 shards: err = %v, want a *ShardGateError", id, err)
			}
		case err != nil:
			t.Errorf("%s at 4 shards: %v", id, err)
		case !strings.Contains(string(golden), entry):
			t.Errorf("%s at 4 shards differs from its golden entry; got\n%s", id, entry)
		}
	}
}

// figureEntry renders one experiment's golden entry: its table, the
// SHA-256 of its merged Prometheus dump without the lines that name an
// ncdsm_shard_ family (a single-shard dump has none), and the SHA-256
// of the JSON rendering of the merged snapshot without those families.
func figureEntry(id string, opts ExperimentOptions) (string, error) {
	fig, snap, err := RunExperiment(id, opts)
	if err != nil {
		return "", err
	}
	var dump strings.Builder
	for _, line := range strings.SplitAfter(snap.Prometheus(), "\n") {
		if !strings.Contains(line, "ncdsm_shard_") {
			dump.WriteString(line)
		}
	}
	var kept Snapshot
	for _, f := range snap.Families {
		if !strings.HasPrefix(f.Name, metrics.ShardScheduleFamilyPrefix) {
			kept.Families = append(kept.Families, f)
		}
	}
	return fmt.Sprintf("=== %s\n%sprometheus sha256 %x\njson sha256 %x\n\n", id, fig.Render(),
		sha256.Sum256([]byte(dump.String())), sha256.Sum256([]byte(kept.JSON()))), nil
}
