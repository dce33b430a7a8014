// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) plus the ablations DESIGN.md calls out. Each
// generator returns a stats.Figure whose rendered rows/series mirror
// what the paper reports; cmd/ncdsm-bench prints them and bench_test.go
// wraps them as Go benchmarks.
//
// Figures 6–8 and the RMC-side ablations run on the micro layer (the
// discrete-event cluster), where contention is the result. Figures 9–11
// and the equation checks run on the macro layer (memmodel accessors),
// where workload scale is the result. Options.Scale shrinks workload
// sizes proportionally so the full set can run in seconds during tests
// and at full size from the harness.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Options configures a run.
type Options struct {
	// P is the system calibration.
	P params.Params
	// Scale multiplies workload sizes (access counts, key counts).
	// 1.0 reproduces the paper-sized runs; tests use much less.
	Scale float64
	// Seed makes runs deterministic and lets tests vary inputs.
	Seed int64
	// Parallel bounds how many sweep points a generator simulates
	// concurrently: 0 (the default) means all cores, 1 reproduces the
	// old serial harness, and Validate refuses a negative value. Each sweep point is an independent
	// single-threaded simulation (fresh engine, system, accessors,
	// RNGs), and results are merged in submission order, so the
	// rendered figures are identical at every setting — Parallel only
	// changes wall-clock time.
	Parallel int
	// Metrics, when non-nil, accumulates every simulated run's metrics
	// snapshot. Generators fold snapshots on their own goroutine in
	// sweep submission order, so the merged snapshot is byte-identical
	// at every Parallel setting — the same contract the figures obey.
	Metrics *metrics.Merged
}

// addMetrics folds one run's snapshot into the accumulator, if any. Must
// be called from the generator goroutine in submission order.
func (o Options) addMetrics(s metrics.Snapshot) {
	if o.Metrics != nil {
		o.Metrics.Add(s)
	}
}

// DefaultOptions returns the paper-scale configuration.
func DefaultOptions() Options {
	return Options{P: params.Default(), Scale: 1.0, Seed: 1}
}

// Validate reports why o cannot run: Scale must be positive and finite,
// every count it scales must fit an int, Parallel must not be negative,
// and the calibration must pass params.Validate. Every generator Lookup
// returns checks it first, so the facade's RunExperiment refuses a bad
// option set before any system is built.
func (o Options) Validate() error {
	if !(o.Scale > 0) || math.IsInf(o.Scale, 1) {
		return fmt.Errorf("experiments: Scale must be positive and finite (got %v)", o.Scale)
	}
	// The largest counts scaled are the paper's key population and the
	// swap residency. Past MaxInt64 a float-to-int conversion is
	// implementation-defined (amd64 yields MinInt64), so every count
	// would silently fall to its floor.
	for _, base := range []int{paperKeys, o.P.SwapResidentPages} {
		if float64(base)*o.Scale >= math.MaxInt64 {
			return fmt.Errorf("experiments: Scale %v overflows the scaled count %d × %v", o.Scale, base, o.Scale)
		}
	}
	if o.Parallel < 0 {
		return fmt.Errorf("experiments: Parallel must be 0 (all cores) or a worker count (got %d)", o.Parallel)
	}
	return o.P.Validate()
}

// paperKeys is the paper's b-tree population (Figures 9 and 10,
// Ablation G), the largest base count a generator scales.
const paperKeys = 10_000_000

// scaled applies Scale to a base count with a floor.
func (o Options) scaled(base, floor int) int {
	n := int(float64(base) * o.Scale)
	if n < floor {
		n = floor
	}
	return n
}

// Generator produces one figure.
type Generator func(Options) (*stats.Figure, error)

// Registry maps experiment identifiers (the paper's figure numbers plus
// our ablation letters) to generators, in presentation order.
func Registry() []struct {
	ID  string
	Gen Generator
} {
	return []struct {
		ID  string
		Gen Generator
	}{
		{"table1", Table1},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"eq", Equations},
		{"A", AblationCoherency},
		{"B", AblationWindow},
		{"C", AblationRetry},
		{"D", AblationPrefetch},
		{"E", AblationParallelPhase},
		{"F", AblationFabric},
		{"G", AblationIndexes},
		{"H", ConsistencyCost},
		{"I", BulkScan},
		{"scale", Scale},
	}
}

// Lookup finds a generator by identifier. The generator it returns
// refuses options that fail Validate.
func Lookup(id string) (Generator, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return func(o Options) (*stats.Figure, error) {
				if err := o.Validate(); err != nil {
					return nil, err
				}
				return e.Gen(o)
			}, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ---- shared micro-layer driver ----

// microRun is one random-access experiment on the event-driven cluster.
type microRun struct {
	// Client is the node issuing the accesses.
	Client addr.NodeID
	// Servers donate the memory the client reserves (round-robin).
	Servers []addr.NodeID
	// Threads on the client, each performing AccessesPerThread loads.
	Threads           int
	AccessesPerThread int
	// WriteFrac selects stores; the paper's microbenchmark uses loads.
	WriteFrac float64
	// Express routes this client's traffic over an express link (the
	// Figure 8 control thread); the link must exist.
	Express bool
	// BytesPerServer sizes each reservation.
	BytesPerServer uint64
	// OnThreadDone, if set, fires when each of this run's threads
	// finishes (Figure 8 stops the world when the control thread does).
	OnThreadDone func(*cpu.Thread, sim.Time)
}

// microResult reports a finished run.
type microResult struct {
	Elapsed     sim.Time
	MeanLatency float64 // picoseconds per access
	Threads     []*cpu.Thread
	// Metrics is the run's registry snapshot, captured on the goroutine
	// that ran the simulation so lazily-sampled instruments read their
	// final values.
	Metrics metrics.Snapshot
}

// launch prepares the run on an existing system and returns the threads
// (started). The caller runs the engine and collects.
func (mr microRun) launch(sys *core.System, seed int64) ([]*cpu.Thread, error) {
	if mr.BytesPerServer == 0 {
		mr.BytesPerServer = 64 << 20
	}
	region, err := sys.Region(mr.Client)
	if err != nil {
		return nil, err
	}
	var ranges []addr.Range
	for _, s := range mr.Servers {
		r, err := region.GrowFrom(s, mr.BytesPerServer)
		if err != nil {
			return nil, err
		}
		ranges = append(ranges, r)
	}
	node, err := sys.Cluster().Node(mr.Client)
	if err != nil {
		return nil, err
	}
	p := sys.Params()
	threads := make([]*cpu.Thread, mr.Threads)
	for t := 0; t < mr.Threads; t++ {
		stream, err := workloads.RandomStream(seed+int64(t)*7919, ranges, mr.AccessesPerThread, mr.WriteFrac)
		if err != nil {
			return nil, err
		}
		th, err := cpu.NewThread(cpu.ThreadConfig{
			Name:         fmt.Sprintf("n%d/t%d", mr.Client, t),
			Engine:       node.Engine(),
			Memory:       node,
			Stream:       stream,
			Core:         t % p.CoresPerNode,
			WindowLocal:  p.LocalOutstanding,
			WindowRemote: p.RemoteOutstanding,
			Express:      mr.Express,
			OnDone:       mr.OnThreadDone,
		})
		if err != nil {
			return nil, err
		}
		th.Start(0)
		threads[t] = th
	}
	return threads, nil
}

// run executes the microbenchmark on a fresh system and waits for all
// client threads.
func (mr microRun) run(o Options) (microResult, error) {
	sys, err := core.NewSystem(o.P)
	if err != nil {
		return microResult{}, err
	}
	threads, err := mr.launch(sys, o.Seed)
	if err != nil {
		return microResult{}, err
	}
	sys.Run()
	res, err := collect(threads)
	res.Metrics = sys.Registry().Snapshot()
	return res, err
}

func collect(threads []*cpu.Thread) (microResult, error) {
	res := microResult{Threads: threads}
	var latSum float64
	var latN uint64
	for _, th := range threads {
		if !th.Done {
			return res, fmt.Errorf("experiments: thread %s did not finish", th.Name)
		}
		if th.FinishTime > res.Elapsed {
			res.Elapsed = th.FinishTime
		}
		latSum += th.Latency.Mean() * float64(th.Latency.N())
		latN += th.Latency.N()
	}
	if latN > 0 {
		res.MeanLatency = latSum / float64(latN)
	}
	return res, nil
}

// serversAt picks n distinct server nodes exactly h hops from the
// client, preferring low identifiers for determinism. Pure geometry — no
// system is built.
func serversAt(o Options, client addr.NodeID, h, n int) ([]addr.NodeID, error) {
	topo, err := mesh.NewTopology(o.P.MeshWidth, o.P.MeshHeight)
	if err != nil {
		return nil, err
	}
	cands := topo.AtDistance(client, h)
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	if len(cands) < n {
		return nil, fmt.Errorf("experiments: only %d nodes at distance %d from node %d, need %d", len(cands), h, client, n)
	}
	return cands[:n], nil
}

// cpuAccess wraps a physical address as a read access.
func cpuAccess(a addr.Phys) cpu.Access { return cpu.Access{Addr: a} }

// usPerOp converts (elapsed picoseconds, ops) to microseconds per op.
func usPerOp(elapsed sim.Time, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(elapsed) / float64(ops) / float64(params.Microsecond)
}
