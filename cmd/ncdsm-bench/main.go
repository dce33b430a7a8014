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
//	ncdsm-bench -fig 7 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Scale 1.0 runs paper-sized workloads (10M-key b-trees, 500k searches)
// and can take many minutes; the default 0.05 preserves every shape in
// seconds.
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
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
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
			fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
			os.Exit(2)
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

	plan, err := ncdsm.ParseFaultPlan(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
		os.Exit(2)
	}
	bulk, err := ncdsm.ParseBulkSpec(*bulkSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
		os.Exit(2)
	}
	meshW, meshH, err := ncdsm.ParseMesh(*meshSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
		os.Exit(2)
	}
	linkLatSpec, err := ncdsm.ParseLinkLatSpec(*linkLat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
		os.Exit(2)
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %s\n", e.ID)
		}
		fmt.Println("sweepable parameters (-sweep Key=v1,v2,...):")
		for _, k := range experiments.SweepableParams() {
			fmt.Printf("  %s\n", k)
		}
		return
	}
	if err := checkMetricsFormat(*metricsFmt); err != nil {
		fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
		os.Exit(2)
	}

	ids, err := selectIDs(*fig, *table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
		os.Exit(2)
	}
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *sweep == "" {
		// Plain runs go through the public ncdsm API, exercising the
		// surface a downstream user sees.
		opts := ncdsm.ExperimentOptions{
			Scale: *scale, Parallel: *parallel, Seed: *seed, Faults: plan, Bulk: bulk,
			MeshWidth: meshW, MeshHeight: meshH, Shards: *shards,
			LinkLat: linkLatSpec,
		}
		for _, id := range ids {
			start := time.Now()
			figure, snap, err := ncdsm.RunExperiment(id, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ncdsm-bench: %s: %v\n", id, err)
				os.Exit(1)
			}
			printFigure(figure, *format, time.Since(start), *scale)
			printMetrics(snap, *metricsFmt)
		}
		return
	}

	// Sweeps vary internal calibration knobs, so they drive the internal
	// harness directly.
	base := experiments.DefaultOptions()
	base.Scale = *scale
	base.Seed = *seed
	base.Parallel = *parallel
	if !plan.Empty() {
		base.P.Faults = plan
	}
	bulk.Apply(&base.P)
	if meshW != 0 {
		base.P.MeshWidth, base.P.MeshHeight = meshW, meshH
	}
	if *shards != 0 {
		base.P.Shards = *shards
	}
	if !linkLatSpec.Empty() {
		base.P.LinkLat = linkLatSpec
	}

	sweepKey, sweepValues, err := experiments.ParseSweep(*sweep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
		os.Exit(2)
	}
	for _, sv := range sweepValues {
		o := base
		if err := experiments.ApplyParam(&o.P, sweepKey, sv); err != nil {
			fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
			os.Exit(2)
		}
		fmt.Printf("--- %s = %s ---\n", sweepKey, sv)
		runAll(ids, o, *format, *metricsFmt)
	}
}

// runAll generates and prints each selected experiment under o.
func runAll(ids []string, o experiments.Options, format, metricsFmt string) {
	for _, id := range ids {
		gen, err := experiments.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ncdsm-bench:", err)
			os.Exit(2)
		}
		var merged metrics.Merged
		o.Metrics = &merged
		start := time.Now()
		figure, err := gen(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ncdsm-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		printFigure(figure, format, time.Since(start), o.Scale)
		printMetrics(merged.Snapshot(), metricsFmt)
	}
}

// printFigure renders one figure in the selected format.
func printFigure(figure *stats.Figure, format string, took time.Duration, scale float64) {
	switch format {
	case "csv":
		out, err := figure.CSV()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ncdsm-bench: %s: %v\n", figure.ID, err)
			os.Exit(1)
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
	default:
		fmt.Fprintf(os.Stderr, "ncdsm-bench: unknown format %q\n", format)
		os.Exit(2)
	}
}

// printMetrics renders the experiment's merged snapshot, if asked for.
func printMetrics(snap metrics.Snapshot, format string) {
	switch format {
	case "":
	case "prom":
		fmt.Print(snap.Prometheus())
		fmt.Println()
	case "json":
		fmt.Print(snap.JSON())
	}
}

func checkMetricsFormat(format string) error {
	switch format {
	case "", "prom", "json":
		return nil
	}
	return fmt.Errorf("unknown -metrics format %q (want prom or json)", format)
}

// selectIDs maps the -fig/-table flags to experiment identifiers.
func selectIDs(fig, table string) ([]string, error) {
	var ids []string
	switch {
	case fig == "all":
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	case fig != "":
		id := fig
		if _, err := strconv.Atoi(id); err == nil {
			// Bare figure numbers map to the paper's figure ids.
			id = "fig" + id
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
