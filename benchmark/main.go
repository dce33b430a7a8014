// Command benchmark measures the simulator end to end on four workloads
// and, in a traced run, layer by layer. README.md lists the workloads,
// the metrics and how to read a comparison.
//
// Every repetition ("op") runs in a fresh child process of this binary,
// one at a time, so each op has its own heap and peak RSS and only one
// process generates load at any moment.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// pinsJSON maps workload → seed → the sim digest an op at scale 1 must
// reproduce. `-pin` rewrites it.
//
//go:embed pins.json
var pinsJSON []byte

// The benchmark runs from the repository root.
const (
	specPath = "BENCHMARK.json"
	pinsPath = "benchmark/pins.json"
)

func main() {
	var (
		wl       = flag.String("workload", "all", "workload to run ("+strings.Join(workloadNames(), ", ")+") or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "measure each workload for about this many seconds; 0 runs -reps ops each")
		reps     = flag.Int("reps", 10, "ops per workload when -seconds is 0")
		trace    = flag.Int("trace", 0, "1 adds a traced op per workload and reports the per-layer metrics instead")
		scale    = flag.Float64("scale", 1, "multiplier on every workload's input size")
		out      = flag.String("out", "", "write the results as JSON to this file, for -compare")
		traceDir = flag.String("trace-dir", ".bench_build", "directory for trace-<workload>.jsonl")
		compare  = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		pin      = flag.Bool("pin", false, "record the sim digests of seeds 0-10 into "+pinsPath)
		child    = flag.Bool("child", false, "run one op in this process and print its result (used by the orchestrator)")
		shards   = flag.Int("shards", 0, "with -child: override the workload's shard count")
		refOnly  = flag.Bool("reference", false, "time the host-speed reference once and print its seconds (used by the orchestrator)")
	)
	flag.Parse()

	if *refOnly {
		fmt.Println(runReference())
		return
	}
	if *child {
		res := runOp(opConfig{workload: *wl, seed: *seed, scale: *scale, shards: *shards, trace: *trace == 1}, *traceDir)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fail(err)
		}
		return
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	names, err := selectWorkloads(*wl)
	if err != nil {
		fail(err)
	}
	o := orchestrator{seed: *seed, scale: *scale, traceDir: *traceDir}
	if o.exe, err = os.Executable(); err != nil {
		fail(err)
	}
	if *pin {
		if err := o.pin(names); err != nil {
			fail(err)
		}
		return
	}
	if *reps < 1 || *seconds < 0 || *trace < 0 || *trace > 1 || *scale <= 0 {
		fail(fmt.Errorf("need -reps >= 1, -seconds >= 0, -trace 0 or 1 and -scale > 0"))
	}
	set := o.run(names, *reps, time.Duration(*seconds)*time.Second, *trace == 1)
	printTable(os.Stdout, spec, set, *trace == 1)
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fail(err)
		}
	}
	if len(names) == 1 {
		line, err := resultLine(spec, set.Workloads[names[0]], *trace == 1)
		if err != nil {
			fail(err)
		}
		fmt.Println(line)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

func selectWorkloads(name string) ([]string, error) {
	if name == "all" {
		return workloadNames(), nil
	}
	if _, err := lookupWorkload(name); err != nil {
		return nil, err
	}
	return []string{name}, nil
}

// opResult is what a child reports about its op, in raw host time. The
// orchestrator adds the CPU time and peak RSS it reads from the child's
// resource usage, and the host factor.
type opResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Shards   int     `json:"shards"`
	Traced   bool    `json:"traced"`
	Err      string  `json:"err,omitempty"`
	Digest   string  `json:"digest,omitempty"`
	Accesses uint64  `json:"accesses"`
	SetupS   float64 `json:"setup_s"`
	RunS     float64 `json:"run_s"`
	WallS    float64 `json:"wall_s"`
	AllocMB  float64 `json:"alloc_mb"`
	CPUS     float64 `json:"cpu_s"`
	RSSMB    float64 `json:"peak_rss_mb"`
	// HostFactor is how slow the reference ran around the op, relative
	// to its nominal time; the orchestrator divides host times by it.
	HostFactor float64 `json:"host_factor"`
	// Layers holds the per-layer metrics of a traced op.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runOp runs one op in this process. Wall time stops once the program's
// work and its metrics snapshot are done; the digest and the trace file
// are the benchmark's own bookkeeping.
func runOp(c opConfig, traceDir string) opResult {
	res := opResult{Workload: c.workload, Seed: c.seed, Traced: c.trace}
	w, err := lookupWorkload(c.workload)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if c.shards == 0 {
		c.shards = w.shards
	}
	res.Shards = c.shards
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	start := time.Now()
	o, err := w.run(c, tr)
	wall := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Digest = o.digest()
	res.Accesses = o.accesses
	res.SetupS, res.RunS, res.WallS = o.setup.Seconds(), o.run.Seconds(), wall.Seconds()
	res.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	if tr != nil {
		res.Layers = layerMetrics(o, tr, &ms)
		if err := tr.write(filepath.Join(traceDir, "trace-"+c.workload+".jsonl")); err != nil {
			res.Err = err.Error()
		}
	}
	return res
}
