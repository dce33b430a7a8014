// Package metrics is the cluster-wide observability layer: a registry of
// counters, gauges, and fixed-bucket histograms that every simulated
// substrate (RMC, mesh, caches, DRAM, the event engine itself) reports
// into, and a deterministic Snapshot type the public API exposes.
//
// Two properties drive the design:
//
//   - Cheap on the hot path. Counters and gauges exist only as
//     *sampling functions* (CounterFunc/GaugeFunc) over tallies the
//     substrates already keep, evaluated only when a snapshot is taken —
//     instrumenting a counter costs nothing per event. Only histograms
//     pay a per-observation cost (one bucket scan over a fixed bound
//     slice); HistogramFunc samples a histogram the caller owns.
//
//   - Deterministic output. A Registry belongs to exactly one simulated
//     System (it hangs off the sim.Engine, like everything else shared),
//     snapshots order families by name and samples by label signature,
//     and Snapshot.Merge combines run snapshots pairwise in submission
//     order — so the experiment harness produces byte-identical metrics
//     at any -parallel worker count, the same contract the figures obey.
//
// Ownership follows the harness rule (see internal/stats): a Registry is
// not internally synchronized; it is owned by the goroutine running its
// simulation, and only immutable Snapshots cross goroutines.
package metrics

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Label is one name/value pair attached to a sample.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Labels identifies a sample within a family. Order does not matter at
// registration; labels are sorted by key internally.
type Labels []Label

// L builds a Labels from alternating key/value strings:
// L("node", "3", "mc", "0").
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("metrics: L called with an odd number of strings")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// Get returns the value of the named label ("" when absent).
func (ls Labels) Get(key string) string {
	for _, l := range ls {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// signature is the canonical sorted key=value form used as a map key and
// as the deterministic sample sort order.
func (ls Labels) signature() string {
	sorted := ls.sorted()
	n := 0
	for _, l := range sorted {
		n += len(l.Key) + len(l.Value) + 2
	}
	var b strings.Builder
	b.Grow(n)
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sorted returns a copy with labels ordered by key.
func (ls Labels) sorted() Labels {
	out := append(Labels(nil), ls...)
	slices.SortFunc(out, func(a, b Label) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// Kind distinguishes the instrument types.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Histogram is a fixed-bucket distribution of int64 samples (simulated
// time in picoseconds, by convention). Bounds are inclusive upper edges;
// samples above the last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []int64
	counts []uint64 // len(bounds)+1; the last is the +Inf bucket
	sum    int64
	n      uint64
	// start[L] is the first bucket a sample of bit length L can land
	// in; the scan from there touches at most the couple of bounds
	// sharing that binade, making Observe O(1) on the engine's
	// every-event hot path.
	start [65]uint8
}

// indexBounds precomputes the bit-length jump table for a bound set.
func (h *Histogram) indexBounds() {
	for l := 0; l <= 64; l++ {
		var minv int64
		if l > 0 && l < 64 {
			minv = int64(1) << (l - 1)
		} else if l == 64 {
			minv = int64(1)<<62 + 1 // bit length 64 exceeds every sane bound
		}
		i := 0
		for i < len(h.bounds) && h.bounds[i] < minv {
			i++
		}
		h.start[l] = uint8(i)
	}
}

// Observe records one sample. Negative samples are clamped to zero (the
// simulator never produces them; clamping keeps the sum meaningful if a
// model bug does).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.sum += v
	i := int(h.start[bits.Len64(uint64(v))])
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
}

// N returns the sample count.
func (h *Histogram) N() uint64 { return h.n }

// Sum returns the total of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// NewHistogram returns a standalone histogram that is not attached to any
// registry. The sharded engine gives each shard a private unregistered
// delay histogram and merges them into one registered HistogramFunc at
// snapshot time.
func NewHistogram(bounds []int64) *Histogram {
	h := &Histogram{bounds: append([]int64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	h.indexBounds()
	return h
}

// Reset zeroes every bucket, the sum, and the count.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.sum = 0
	h.n = 0
}

// AddAll folds another histogram with identical bounds into h.
func (h *Histogram) AddAll(o *Histogram) {
	if len(o.counts) != len(h.counts) {
		panic("metrics: AddAll across mismatched bucket layouts")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.n += o.n
}

// TimeBuckets are the default latency bounds in picoseconds: 100 ns to
// 10 ms in a 1-2-5 progression, spanning a cache hit to a congested
// remote round trip with headroom for swap-path ablations.
func TimeBuckets() []int64 {
	const ns = int64(1000)
	return []int64{
		100 * ns, 200 * ns, 500 * ns,
		1000 * ns, 2000 * ns, 5000 * ns,
		10_000 * ns, 20_000 * ns, 50_000 * ns,
		100_000 * ns, 1_000_000 * ns, 10_000_000 * ns,
	}
}

// series is one labeled instrument inside a family.
type series struct {
	labels  Labels
	ctrFn   func() uint64
	gaugeFn func() float64
	hist    *Histogram
	histFn  func() *Histogram
}

// family groups series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []int64
	series map[string]*series
}

// Registry holds one simulation's instruments. Create with NewRegistry;
// the zero value is not usable.
type Registry struct {
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: family %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// CounterFunc registers a sampling function for name+labels: fn is read
// only when a snapshot is taken, so instrumenting an existing tally has
// no hot-path cost. Re-registering replaces the function (last wins).
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() uint64) {
	f := r.family(name, help, KindCounter)
	f.series[ls.signature()] = &series{labels: ls.sorted(), ctrFn: fn}
}

// GaugeFunc registers a sampling function evaluated at snapshot time.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() float64) {
	f := r.family(name, help, KindGauge)
	f.series[ls.signature()] = &series{labels: ls.sorted(), gaugeFn: fn}
}

// Histogram returns the histogram for name+labels with the given bounds,
// creating it on first use. Bounds must be sorted ascending; every
// series of a family shares the family's bounds (the first registration
// fixes them).
func (r *Registry) Histogram(name, help string, ls Labels, bounds []int64) *Histogram {
	f := r.family(name, help, KindHistogram)
	if f.bounds == nil {
		if len(bounds) > 255 {
			panic(fmt.Sprintf("metrics: %s has %d bounds (max 255)", name, len(bounds)))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: %s bounds not ascending at %d", name, i))
			}
		}
		f.bounds = append([]int64(nil), bounds...)
	}
	sig := ls.signature()
	if s, ok := f.series[sig]; ok && s.hist != nil {
		return s.hist
	}
	h := &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	h.indexBounds()
	f.series[sig] = &series{labels: ls.sorted(), hist: h}
	return h
}

// HistogramFunc registers a sampling function for a histogram series: fn
// is evaluated only at snapshot time and must return a histogram whose
// bounds match the family's. The sharded engine uses this to present the
// per-shard delay histograms as one merged family.
func (r *Registry) HistogramFunc(name, help string, ls Labels, bounds []int64, fn func() *Histogram) {
	f := r.family(name, help, KindHistogram)
	if f.bounds == nil {
		f.bounds = append([]int64(nil), bounds...)
	}
	f.series[ls.signature()] = &series{labels: ls.sorted(), histFn: fn}
}

// Snapshot materializes every instrument into an immutable, fully
// ordered Snapshot: families sorted by name, samples by label
// signature. Sampling functions are evaluated here.
func (r *Registry) Snapshot() Snapshot {
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	snap := Snapshot{Families: make([]Family, 0, len(names))}
	for _, n := range names {
		f := r.families[n]
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		out := Family{Name: f.name, Help: f.help, Kind: f.kind}
		for _, sig := range sigs {
			s := f.series[sig]
			sample := Sample{Labels: s.labels}
			switch {
			case s.ctrFn != nil:
				sample.Value = float64(s.ctrFn())
			case s.gaugeFn != nil:
				sample.Value = s.gaugeFn()
			default:
				h := s.hist
				if h == nil {
					h = s.histFn()
				}
				sample.Buckets = make([]Bucket, len(h.bounds)+1)
				for i, b := range h.bounds {
					sample.Buckets[i] = Bucket{Le: b, Count: h.counts[i]}
				}
				sample.Buckets[len(h.bounds)] = Bucket{Le: BucketInf, Count: h.counts[len(h.bounds)]}
				sample.Sum = h.sum
				sample.Count = h.n
			}
			out.Samples = append(out.Samples, sample)
		}
		snap.Families = append(snap.Families, out)
	}
	return snap
}
