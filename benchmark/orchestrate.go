package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

const (
	// opTimeout bounds one child; a stuck op is killed and counts as
	// failed.
	opTimeout = 60 * time.Second
	// minReps is the fewest timed ops a workload gets under -seconds.
	minReps = 3
	// pinSeeds is the last seed -pin records (from 0).
	pinSeeds = 10
)

// orchestrator runs ops as child processes of exe, strictly one at a
// time.
type orchestrator struct {
	exe      string
	seed     int64
	scale    float64
	traceDir string
}

// spawn runs one op in a child process and waits for it to end.
func (o orchestrator) spawn(c opConfig) opResult {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	trace := "0"
	if c.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, o.exe, "-child", "-workload", c.workload,
		"-seed", strconv.FormatInt(c.seed, 10), "-scale", strconv.FormatFloat(c.scale, 'g', -1, 64),
		"-shards", strconv.Itoa(c.shards), "-trace", trace, "-trace-dir", o.traceDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var res opResult
	if err == nil {
		err = json.Unmarshal(stdout.Bytes(), &res)
	}
	if err != nil {
		res = opResult{Workload: c.workload, Seed: c.seed, Traced: c.trace, Err: fmt.Sprintf("child process: %v", err)}
	}
	if ps := cmd.ProcessState; ps != nil {
		res.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			res.RSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
		}
	}
	return res
}

// reference times the reference in a child process and returns its time
// in seconds.
func (o orchestrator) reference() float64 {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	out, err := exec.CommandContext(ctx, o.exe, "-reference").Output()
	if err != nil {
		fail(fmt.Errorf("reference: %w", err))
	}
	s, err := strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
	if err != nil || s <= 0 {
		fail(fmt.Errorf("reference printed %q", out))
	}
	return s
}

// timed runs one op and then the reference, and records the op's host
// factor: the geometric mean of the reference's times just before the
// op (*ref on entry) and just after it (*ref on return), over its
// nominal time.
func (o orchestrator) timed(ref *float64, c opConfig) opResult {
	before := *ref
	res := o.spawn(c)
	*ref = o.reference()
	res.HostFactor = math.Sqrt(before**ref) / refNominalS
	return res
}

// workloadOps is everything one workload ran in a set.
type workloadOps struct {
	timed []opResult
	// traced is the traced op; single is the single-shard op a sharded
	// workload adds to a traced run.
	traced, single *opResult
	spent          time.Duration
}

// run measures the workloads. Timed ops are interleaved round-robin,
// each round starting one workload later, so host drift hits all
// workloads alike. Each workload gets reps ops, or with a budget as
// many as fit in it (at least minReps); the budget covers the reference
// runs too. A traced run then adds one traced op per workload, and a
// single-shard op per sharded workload.
func (o orchestrator) run(names []string, reps int, budget time.Duration, trace bool) *setResult {
	ref := o.reference()
	ops := make(map[string]*workloadOps, len(names))
	for _, n := range names {
		ops[n] = &workloadOps{}
	}
	more := func(n string) bool {
		w := ops[n]
		k := len(w.timed)
		switch {
		case budget == 0:
			return k < reps
		case k < minReps:
			return true
		}
		// Leave room for the next timed op and, in a traced run, for the
		// traced and single-shard ops, which take longer.
		next := w.spent / time.Duration(k)
		reserve := next
		if trace {
			reserve += 3 * next
		}
		return w.spent+reserve <= budget
	}
	for round := 0; ; round++ {
		progressed := false
		for i := range names {
			n := names[(i+round)%len(names)]
			if !more(n) {
				continue
			}
			start := time.Now()
			res := o.timed(&ref, opConfig{workload: n, seed: o.seed, scale: o.scale})
			ops[n].spent += time.Since(start)
			ops[n].timed = append(ops[n].timed, res)
			progressed = true
		}
		if !progressed {
			break
		}
	}
	if trace {
		for _, n := range names {
			traced := o.timed(&ref, opConfig{workload: n, seed: o.seed, scale: o.scale, trace: true})
			ops[n].traced = &traced
			if w, _ := lookupWorkload(n); w.shards > 1 {
				single := o.timed(&ref, opConfig{workload: n, seed: o.seed, scale: o.scale, shards: 1})
				ops[n].single = &single
			}
		}
	}
	set := &setResult{
		Host:      hostInfo{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH},
		Seed:      o.seed,
		Scale:     o.scale,
		Workloads: make(map[string]*workloadSummary, len(names)),
	}
	for _, n := range names {
		set.Workloads[n] = o.summarize(n, ops[n])
	}
	return set
}

// summarize checks every op of a workload and reduces the measured
// ones to metric summaries. An op fails when it reports an error or its
// sim digest differs from the pin for (workload, seed), or — without a
// pin — from the first completed op's. The traced and single-shard ops
// must reproduce the same digest: tracing and shard count never change
// simulated results. An op that completed with another digest still
// counts as measured, so a failing run reports its timings too.
func (o orchestrator) summarize(name string, w *workloadOps) *workloadSummary {
	s := &workloadSummary{Metrics: map[string]*metricSummary{}}
	all := append([]opResult(nil), w.timed...)
	if w.traced != nil {
		all = append(all, *w.traced)
	}
	if w.single != nil {
		all = append(all, *w.single)
	}
	if o.scale == 1 {
		s.Digest = pinned(name, o.seed)
	}
	for _, r := range all {
		s.Attempted++
		switch {
		case r.Err != "":
		case s.Digest == "":
			s.Digest = r.Digest
			continue
		case r.Digest == s.Digest:
			continue
		default:
			r.Err = fmt.Sprintf("sim digest %.16s… differs from %.16s…", r.Digest, s.Digest)
		}
		s.Failed++
		s.Failures = append(s.Failures, fmt.Sprintf("%s seed %d shards %d traced %v: %s", name, r.Seed, r.Shards, r.Traced, r.Err))
	}

	values := map[string][]float64{}
	var runS, factors []float64
	for _, r := range w.timed {
		if r.Err != "" {
			continue
		}
		for k, v := range endToEnd(r) {
			values[k] = append(values[k], v)
		}
		runS = append(runS, r.RunS/r.HostFactor)
		factors = append(factors, r.HostFactor)
	}
	for k, v := range values {
		s.Metrics[k] = summarizeValues(v)
	}
	if len(factors) > 0 {
		s.HostFactor = summarizeValues(factors)
	}
	if wall := s.Metrics["wall_s"]; wall != nil && w.traced != nil && w.traced.Err == "" {
		layers := w.traced.Layers
		layers["trace.overhead"] = w.traced.WallS / w.traced.HostFactor / wall.Median
		layers["sim.shard_speedup"] = 0
		if w.single != nil && w.single.Err == "" {
			layers["sim.shard_speedup"] = w.single.RunS / w.single.HostFactor / median(runS)
		}
		for k, v := range layers {
			s.Metrics[k] = summarizeValues([]float64{v})
		}
	}
	return s
}

// endToEnd is one successful op's end-to-end metrics, with host times
// rescaled by the op's host factor.
func endToEnd(r opResult) map[string]float64 {
	f := r.HostFactor
	return map[string]float64{
		"wall_s":         r.WallS / f,
		"setup_s":        r.SetupS / f,
		"accesses_per_s": float64(r.Accesses) / r.RunS * f,
		"cpu_s":          r.CPUS / f,
		"peak_rss_mb":    r.RSSMB,
		"alloc_mb":       r.AllocMB,
	}
}

func pinned(workload string, seed int64) string {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		panic(fmt.Sprintf("embedded pins.json: %v", err))
	}
	return pins[workload][strconv.FormatInt(seed, 10)]
}

// pin records the sim digest of one op per workload for seeds 0 to
// pinSeeds at scale 1, keeping the pins of other workloads.
func (o orchestrator) pin(names []string) error {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return err
	}
	if pins == nil {
		pins = map[string]map[string]string{}
	}
	for _, n := range names {
		pins[n] = map[string]string{}
		for seed := int64(0); seed <= pinSeeds; seed++ {
			r := o.spawn(opConfig{workload: n, seed: seed, scale: 1})
			if r.Err != "" {
				return fmt.Errorf("%s seed %d: %s", n, seed, r.Err)
			}
			pins[n][strconv.FormatInt(seed, 10)] = r.Digest
			fmt.Printf("%-14s seed %2d  %s\n", n, seed, r.Digest)
		}
	}
	return writeJSON(pinsPath, pins)
}
