package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ncdsm "repro"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/stats"
)

// TestMain serves the orchestrator's child processes: the orchestrator
// re-executes its own binary with -child or -reference, which under go
// test is this test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-child" || os.Args[1] == "-reference") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at 1/100 size through the child-process
// path, with a traced op and the single-shard op, and checks that every
// metric of BENCHMARK.json is emitted and no op failed. An op fails when
// its sim digest differs from the others', so this also checks that
// reps, the traced op and fabric32 at one and two shards agree.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	o := orchestrator{exe: exe, seed: 1, scale: 0.01, traceDir: t.TempDir()}
	set := o.run(workloadNames(), 2, 0, true)
	for _, name := range workloadNames() {
		s := set.Workloads[name]
		if s.Failed > 0 || s.Attempted < 3 {
			t.Errorf("%s: %d of %d ops failed: %s", name, s.Failed, s.Attempted, strings.Join(s.Failures, "; "))
		}
		for traced, want := range map[bool][]metricSpec{false: spec.EndToEnd, true: spec.PerLayer} {
			line, err := resultLine(spec, s, traced)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var got struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, m := range want {
				if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s: result line lacks %s in %s", name, m.Name, m.Unit)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(o.traceDir, "trace-"+name+".jsonl")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if s := set.Workloads["fabric32"]; s.Metrics["sim.shard_speedup"].Median <= 0 {
		t.Errorf("fabric32 reports no shard speedup")
	}
}

// TestDigestMismatchFails checks that an op whose sim digest differs
// from the run's first — in a timed rep, the traced op or the
// single-shard op — counts as failed.
func TestDigestMismatchFails(t *testing.T) {
	op := func(digest string) opResult {
		return opResult{Digest: digest, WallS: 1, SetupS: 1, RunS: 1, Accesses: 1, HostFactor: 1, Layers: map[string]float64{}}
	}
	for _, w := range []*workloadOps{
		{timed: []opResult{op("a"), op("b"), op("a")}},
		{timed: []opResult{op("a"), op("a")}, traced: ptr(op("b"))},
		{timed: []opResult{op("a"), op("a")}, traced: ptr(op("a")), single: ptr(op("b"))},
	} {
		s := orchestrator{scale: 0.5}.summarize("fabric32", w)
		if s.Failed != 1 || s.Digest != "a" {
			t.Errorf("got %d failed ops and digest %q, want 1 and %q", s.Failed, s.Digest, "a")
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{4, 1}, 0.25, 4.75},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		base, cur []float64
		want      string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.2, 9.8, 10}, "same"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 11.9, 12.1}, "worse"},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "better"},
		{[]float64{10, 15, 5, 20, 8}, []float64{11, 16, 6, 21, 9}, "unresolved"},
	} {
		if _, got := verdict(lower, summarizeValues(c.base), summarizeValues(c.cur)); got != c.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", c.base, c.cur, got, c.want)
		}
	}
}

// TestFabricMatchesScaleExperiment checks that the fabric32 workload, on
// a 4×4 mesh at one and two shards, reproduces the scale experiment's
// completion times, mean latencies and merged metrics snapshot exactly:
// the benchmark times the code users launch.
func TestFabricMatchesScaleExperiment(t *testing.T) {
	opts := ncdsm.DefaultExperimentOptions()
	opts.Scale, opts.Parallel, opts.Seed = 0.02, 1, 3
	opts.MeshWidth, opts.MeshHeight = 4, 4
	fig, snap, err := ncdsm.RunExperiment("scale", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		var merged metrics.Merged
		for threads := 1; threads <= 2; threads++ {
			o, err := fabricOp(nil, 4, shards, opts.Seed, threads, 40)
			if err != nil {
				t.Fatal(err)
			}
			merged.Add(withoutShardSchedule(*o.snap))
			gotMS := float64(o.elapsed) / float64(params.Millisecond)
			gotUS := o.meanLatency / float64(params.Microsecond)
			wantMS := point(t, fig, "completion time (ms)", float64(threads))
			wantUS := point(t, fig, "mean access latency (µs)", float64(threads))
			if gotMS != wantMS || gotUS != wantUS {
				t.Errorf("shards %d, %d threads: %v ms, %v µs; scale experiment %v ms, %v µs", shards, threads, gotMS, gotUS, wantMS, wantUS)
			}
		}
		if merged.Snapshot().JSON() != snap.JSON() {
			t.Errorf("shards %d: metrics snapshot differs from the scale experiment's", shards)
		}
	}
}

// TestBtreeMatchesFig9 checks that the btree_swap search path
// reproduces Fig 9's fanout-168 point under both accessors.
func TestBtreeMatchesFig9(t *testing.T) {
	const scale = 0.002
	opts := ncdsm.DefaultExperimentOptions()
	opts.Scale, opts.Parallel, opts.Seed = scale, 1, 5
	fig, _, err := ncdsm.RunExperiment("fig9", opts)
	if err != nil {
		t.Fatal(err)
	}
	keys, probes := scaled(10_000_000, 20_000, scale), scaled(500_000, 1_000, scale)
	o, err := btreeOp(nil, opts.Seed, keys, probes, btreeResidency(scale))
	if err != nil {
		t.Fatal(err)
	}
	for series, acc := range map[string]string{"remote swap": "remote-swap", "remote memory": "remote memory"} {
		perSearch := params.Duration(float64(o.searches["168/"+acc]) / float64(probes))
		got := float64(perSearch) / float64(params.Microsecond)
		if want := point(t, fig, series, 168); got != want {
			t.Errorf("%s at fanout 168: %v µs, fig9 %v µs", series, got, want)
		}
	}
}

// point returns the y value at x of a figure series.
func point(t *testing.T, fig *stats.Figure, series string, x float64) float64 {
	t.Helper()
	s := fig.FindSeries(series)
	if s == nil {
		t.Fatalf("%s has no series %q", fig.ID, series)
	}
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	t.Fatalf("%s series %q has no point at %v", fig.ID, series, x)
	return 0
}
