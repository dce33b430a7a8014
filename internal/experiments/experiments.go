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

	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/stats"
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
	// snapshot. sweep folds the snapshots on the generator's goroutine
	// in point order, so the merged snapshot is byte-identical at every
	// Parallel setting — the same contract the figures obey. When nil,
	// no snapshot is taken.
	Metrics *metrics.Merged
}

// DefaultOptions returns the paper-scale configuration.
func DefaultOptions() Options {
	return Options{P: params.Default(), Scale: 1.0, Seed: 1}
}

// Validate reports why o cannot run: Scale must be positive and finite,
// every count it scales must fit an int, the key draw it scales must
// fit one allocation (a *KeyDrawError), Parallel must not be negative,
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
	if bytes := 8 * float64(paperKeys) * o.Scale; bytes > maxAlloc {
		return &KeyDrawError{Scale: o.Scale, Bytes: bytes}
	}
	if o.Parallel < 0 {
		return fmt.Errorf("experiments: Parallel must be 0 (all cores) or a worker count (got %d)", o.Parallel)
	}
	return o.P.Validate()
}

// paperKeys is the paper's b-tree population (Figures 9 and 10,
// Ablation G), the largest base count a generator scales.
const paperKeys = 10_000_000

// maxAlloc is the most the Go runtime allocates at once on 64-bit
// platforms; a larger make panics.
const maxAlloc = 1 << 48

// KeyDrawError reports a Scale whose b-tree key draw (8 bytes a key)
// needs a slice past maxAlloc. Refusing it also keeps the draw's dense
// key space of 4n keys far inside int64.
type KeyDrawError struct {
	Scale float64
	Bytes float64 // the key slice's size
}

func (e *KeyDrawError) Error() string {
	return fmt.Sprintf("experiments: Scale %v draws %g bytes of keys, past the %d bytes one allocation can take", e.Scale, e.Bytes, int64(maxAlloc))
}

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
