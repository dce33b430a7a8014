// Command ncdsm-bench regenerates the paper's evaluation: every table
// and figure of Section V plus the ablations, printed as text tables
// with the same rows/series the paper reports.
//
// Usage:
//
//	ncdsm-bench -list
//	ncdsm-bench -fig 7                 # one figure at default scale
//	ncdsm-bench -fig all -scale 0.05   # everything, scaled down
//	ncdsm-bench -table 1
//	ncdsm-bench -fig A                 # coherency ablation
//	ncdsm-bench -fig H                 # consistency-strength cost (DESIGN §13)
//	ncdsm-bench -fig I                 # pointer chase vs bulk scan (DESIGN §14)
//	ncdsm-bench -fig I -bulk frame=4   # same, with 4-line burst frames
//	ncdsm-bench -fig all -parallel 1   # serial sweep points (old harness)
//	ncdsm-bench -fig 7 -metrics prom   # plus the merged metrics snapshot
//	ncdsm-bench -fig B -sweep RMCClientOccupancy=200ns,420ns   # once per value
//	ncdsm-bench -fig 7 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Scale 1.0 runs paper-sized workloads (10M-key b-trees, 500k searches)
// and can take many minutes; the default 0.05 preserves every shape in
// seconds.
//
// Every run takes one path, the one a library user takes: the flags
// build one ncdsm.ExperimentOptions — the machine flags (-mesh -shards
// -linklat -faults -bulk) through ncdsm.MachineFlags — and each
// experiment is ncdsm.RunExperiment over it. Each -sweep value re-runs
// the selection on a copy of those options with one calibration knob
// set, after a "--- Key = value ---" header. Malformed specs, unknown
// formats and unknown experiment ids are refused (exit 2) before
// anything runs.
//
// Sweep points within each experiment run concurrently (-parallel,
// default all cores). Every sweep point is an independent
// single-threaded simulation and results merge in submission order, so
// the output — figures and -metrics snapshots alike — is byte-identical
// at every -parallel setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"

	ncdsm "repro"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 6..11, eq, A..I, or 'all'")
		table      = flag.String("table", "", "table to regenerate: 1")
		scale      = flag.Float64("scale", 0.05, "workload scale (1.0 = paper-sized)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		list       = flag.Bool("list", false, "list available experiments")
		format     = flag.String("format", "table", "output format: table, csv, md, chart")
		sweep      = flag.String("sweep", "", "re-run the experiment per value: Key=v1,v2,... (see -list)")
		parallel   = flag.Int("parallel", 0, "concurrent sweep points per experiment (0 = all cores, 1 = serial)")
		metricsFmt = flag.String("metrics", "", "print the merged metrics snapshot after each experiment: prom or json")
		faultSpec  = flag.String("faults", "", "deterministic fault plan, e.g. seed=2,drop=0.01,corrupt=0.001,down=6-7@0:50us")
		bulkSpec   = flag.String("bulk", "", "bulk burst geometry override: on, or frame=16,maxframes=256")
		meshSpec   = flag.String("mesh", "", "mesh fabric dimensions WxH, e.g. 16x16 (default: calibrated 4x4)")
		shards     = flag.Int("shards", 0, "concurrent PDES shards the mesh is partitioned into (0/1 = single shard; results are byte-identical at any count)")
		linkLat    = flag.String("linklat", "", "per-edge mesh link latencies, e.g. x=100ns,y=140ns,edge=1.0-2.0:250ns (default: uniform hop latency)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(2, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(2, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
			}
		}()
	}

	opts := ncdsm.DefaultExperimentOptions()
	opts.Scale, opts.Parallel, opts.Seed = *scale, *parallel, *seed
	machine := ncdsm.MachineFlags{Mesh: *meshSpec, Shards: *shards, LinkLat: *linkLat, Faults: *faultSpec, Bulk: *bulkSpec}
	if err := machine.Apply(&opts.Config); err != nil {
		fail(2, err)
	}

	if *list {
		fmt.Println("available experiments:")
		for _, id := range ncdsm.Experiments() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("sweepable parameters (-sweep Key=v1,v2,...):")
		for _, k := range experiments.SweepableParams() {
			fmt.Printf("  %s\n", k)
		}
		return
	}
	// Usage errors are refused here, before any experiment runs.
	if *parallel < 0 {
		fail(2, fmt.Errorf("-parallel %d: want 0 (all cores) or a worker count", *parallel))
	}
	if err := checkFormats(*format, *metricsFmt); err != nil {
		fail(2, err)
	}
	ids, err := selectIDs(*fig, *table)
	if err != nil {
		fail(2, err)
	}
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	points, err := sweepPoints(opts, *sweep)
	if err != nil {
		fail(2, err)
	}

	for _, pt := range points {
		fmt.Print(pt.header)
		for _, id := range ids {
			start := time.Now()
			figure, snap, err := ncdsm.RunExperiment(id, pt.opts)
			if err != nil {
				fail(1, fmt.Errorf("%s: %w", id, err))
			}
			printFigure(figure, *format, time.Since(start), *scale)
			printMetrics(snap, *metricsFmt)
		}
	}
}

// fail prints err and exits with code: 2 for a usage error, 1 for a
// run that failed.
func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
	os.Exit(code)
}

// point is one pass over the selected experiments: its options, and
// the header naming its sweep value ("" without -sweep).
type point struct {
	header string
	opts   ncdsm.ExperimentOptions
}

// sweepPoints expands -sweep Key=v1,v2,... into one point per value,
// each a copy of opts with the key set to that value. Without a sweep
// there is one point, opts itself.
func sweepPoints(opts ncdsm.ExperimentOptions, spec string) ([]point, error) {
	if spec == "" {
		return []point{{opts: opts}}, nil
	}
	key, values, err := experiments.ParseSweep(spec)
	if err != nil {
		return nil, err
	}
	points := make([]point, len(values))
	for i, v := range values {
		o := opts
		if err := experiments.ApplyParam(&o.Config, key, v); err != nil {
			return nil, err
		}
		points[i] = point{header: fmt.Sprintf("--- %s = %s ---\n", key, v), opts: o}
	}
	return points, nil
}

// printFigure renders one figure in the selected format.
func printFigure(figure *stats.Figure, format string, took time.Duration, scale float64) {
	switch format {
	case "csv":
		out, err := figure.CSV()
		if err != nil {
			fail(1, fmt.Errorf("%s: %w", figure.ID, err))
		}
		fmt.Print(out)
		fmt.Println()
	case "md":
		fmt.Println(figure.Markdown())
	case "chart":
		fmt.Print(figure.Chart(64, 16))
		fmt.Println()
	case "table":
		fmt.Print(figure.Render())
		fmt.Printf("[generated in %.1fs at scale %g]\n\n", took.Seconds(), scale)
	}
}

// printMetrics renders the experiment's merged snapshot, if asked for.
func printMetrics(snap ncdsm.Snapshot, format string) {
	switch format {
	case "":
	case "prom":
		fmt.Print(snap.Prometheus())
		fmt.Println()
	case "json":
		fmt.Print(snap.JSON())
	}
}

// checkFormats refuses an unknown -format or -metrics value.
func checkFormats(format, metricsFmt string) error {
	switch metricsFmt {
	case "", "prom", "json":
	default:
		return fmt.Errorf("unknown -metrics format %q (want prom or json)", metricsFmt)
	}
	switch format {
	case "table", "csv", "md", "chart":
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

// selectIDs maps the -fig/-table flags to experiment identifiers,
// refusing any id the harness does not have.
func selectIDs(fig, table string) ([]string, error) {
	known := ncdsm.Experiments()
	var ids []string
	switch {
	case fig == "all":
		ids = known
	case fig != "":
		id := fig
		if _, err := strconv.Atoi(id); err == nil {
			// Bare figure numbers map to the paper's figure ids.
			id = "fig" + id
		}
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("unknown experiment %q (see -list)", id)
		}
		ids = append(ids, id)
	}
	if table != "" {
		if table != "1" && table != "table1" {
			return nil, fmt.Errorf("unknown table %q (only table 1 exists)", table)
		}
		ids = append(ids, "table1")
	}
	return ids, nil
}
