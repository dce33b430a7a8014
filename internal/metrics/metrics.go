// Package metrics is the cluster-wide observability layer: a registry of
// counter, gauge, and fixed-bucket histogram families that every
// simulated substrate (RMC, mesh, caches, DRAM, the event engine itself)
// reports into, and a deterministic Snapshot type the public API exposes.
//
// Three properties drive the design:
//
//   - Cheap on the hot path. Counters and gauges are read from tallies
//     the substrates already keep, only when a snapshot is taken —
//     instrumenting a counter costs nothing per event. Only histograms
//     pay a per-observation cost (one bucket scan over a fixed bound
//     slice), and each is owned by the component that observes into it.
//
//   - Cheap to build. A family is registered once, by the component that
//     owns every instance of it (the cluster for its nodes, the fabric
//     for its links), with a collector that enumerates the instances at
//     snapshot time. Building a 1,024-node system therefore makes one
//     registry call per family, not one per series, and labels are
//     rendered only when a snapshot asks for them.
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
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Label is one name/value pair attached to a sample.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Labels identifies a sample within a family. Snapshot samples carry
// their labels sorted by key.
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

// appendSig appends the signature of key-sorted labels to b: their
// key=value pairs joined by commas. Samples are ordered, and matched
// across snapshots, by signature.
func appendSig(b []byte, ls Labels) []byte {
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = append(b, l.Value...)
	}
	return b
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

// NewHistogram returns an empty histogram over bounds, which must be
// strictly ascending and at most 255 long; it keeps the slice, so the
// caller must not modify it afterwards. The component that observes
// into the histogram owns it and reports it through a registered
// histogram family.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) > 255 {
		panic(fmt.Sprintf("metrics: %d histogram bounds (max 255)", len(bounds)))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d", i))
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
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

// timeBuckets is the one bounds slice every latency histogram shares.
var timeBuckets = []int64{
	100 * psPerNs, 200 * psPerNs, 500 * psPerNs,
	1000 * psPerNs, 2000 * psPerNs, 5000 * psPerNs,
	10_000 * psPerNs, 20_000 * psPerNs, 50_000 * psPerNs,
	100_000 * psPerNs, 1_000_000 * psPerNs, 10_000_000 * psPerNs,
}

const psPerNs = int64(1000)

// TimeBuckets returns the default latency bounds in picoseconds: 100 ns
// to 10 ms in a 1-2-5 progression, spanning a cache hit to a congested
// remote round trip with headroom for swap-path ablations. The slice is
// shared by every histogram over it; do not modify it.
func TimeBuckets() []int64 { return timeBuckets }

// family is one registered metric name: its label keys and the collector
// that enumerates its samples at snapshot time.
type family struct {
	name    string
	help    string
	kind    Kind
	keys    []string
	collect func(*Emitter)
}

// maxCachedInt bounds the label values Emitter.Itoa caches: every node
// id of a fabric (14-bit prefix) fits.
const maxCachedInt = 1 << 16

// Registry holds one simulation's metric families. Create with
// NewRegistry; the zero value is not usable.
type Registry struct {
	families []*family // sorted by name
	// ints[n] is the decimal rendering of label value n once some
	// snapshot has asked for it: a node id is formatted once however
	// many families and snapshots label by it.
	ints []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counters registers a counter family. keys are its label keys, sorted
// and unique; collect runs at every snapshot and reports each instance's
// current tally through Emitter.Value, so instrumenting a counter costs
// nothing per event. A family is registered once, by the component that
// owns all its instances; a family whose collector reports nothing is
// left out of the snapshot.
func (r *Registry) Counters(name, help string, keys []string, collect func(*Emitter)) {
	r.register(&family{name: name, help: help, kind: KindCounter, keys: keys, collect: collect})
}

// Gauges registers a gauge family, collected like Counters.
func (r *Registry) Gauges(name, help string, keys []string, collect func(*Emitter)) {
	r.register(&family{name: name, help: help, kind: KindGauge, keys: keys, collect: collect})
}

// Histograms registers a histogram family whose collector reports
// caller-owned histograms (NewHistogram) through Emitter.Histogram.
func (r *Registry) Histograms(name, help string, keys []string, collect func(*Emitter)) {
	r.register(&family{name: name, help: help, kind: KindHistogram, keys: keys, collect: collect})
}

func (r *Registry) register(f *family) {
	for i := 1; i < len(f.keys); i++ {
		if f.keys[i] <= f.keys[i-1] {
			panic(fmt.Sprintf("metrics: %s label keys %q are not sorted and unique", f.name, f.keys))
		}
	}
	i, found := slices.BinarySearchFunc(r.families, f.name, func(g *family, name string) int {
		return strings.Compare(g.name, name)
	})
	if found {
		panic(fmt.Sprintf("metrics: family %s registered twice", f.name))
	}
	r.families = slices.Insert(r.families, i, f)
}

// Emitter receives one family's samples from its collector during a
// snapshot. Label values are passed in the family's key order.
type Emitter struct {
	r      *Registry
	f      *family
	n      int          // samples collected
	vals   []string     // len(f.keys) label values per sample, in emission order
	values []float64    // counter and gauge samples
	hists  []*Histogram // histogram samples
	sig    []byte       // every sample's signature, back to back
	ends   []int        // sample i's signature ends at sig[ends[i]]

	// The last sorted family's keys and label values, its sample order
	// and its rendered labels. The families of one owner enumerate the
	// same instances in the same order, so a family whose keys and
	// values repeat them sorts the same way and shares the label slices.
	prevKeys []string
	prevVals []string
	order    []int
	labels   Labels
}

// Value reports one counter or gauge sample.
func (e *Emitter) Value(v float64, values ...string) {
	if e.f.kind == KindHistogram {
		panic(fmt.Sprintf("metrics: histogram family %s reported a value", e.f.name))
	}
	e.add(values)
	e.values = append(e.values, v)
}

// Histogram reports one histogram sample; the snapshot copies h.
func (e *Emitter) Histogram(h *Histogram, values ...string) {
	if e.f.kind != KindHistogram {
		panic(fmt.Sprintf("metrics: %s family %s reported a histogram", e.f.kind, e.f.name))
	}
	e.add(values)
	e.hists = append(e.hists, h)
}

// Itoa renders an integer label value (a node id, a socket index),
// formatting each value once per registry.
func (e *Emitter) Itoa(n int) string {
	r := e.r
	if n < 0 || n >= maxCachedInt {
		return strconv.Itoa(n)
	}
	if n >= len(r.ints) {
		r.ints = slices.Grow(r.ints, n+1-len(r.ints))[:n+1]
	}
	if r.ints[n] == "" {
		r.ints[n] = strconv.Itoa(n)
	}
	return r.ints[n]
}

func (e *Emitter) add(values []string) {
	if len(values) != len(e.f.keys) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", e.f.name, len(e.f.keys), len(values)))
	}
	e.vals = append(e.vals, values...)
	e.n++
}

// collect runs f's collector into the emitter's reused buffers and
// returns how many samples it reported.
func (e *Emitter) collect(f *family) int {
	e.f, e.n = f, 0
	e.vals, e.values, e.hists = e.vals[:0], e.values[:0], e.hists[:0]
	f.collect(e)
	return e.n
}

// sortSamples orders the collected samples by signature, computing each
// signature once, and renders their labels in that order.
func (e *Emitter) sortSamples() {
	keys, n, nk := e.f.keys, e.n, len(e.f.keys)
	e.sig, e.ends = e.sig[:0], e.ends[:0]
	var ls Labels
	for i := 0; i < n; i++ {
		ls = ls[:0]
		for k, key := range keys {
			ls = append(ls, Label{Key: key, Value: e.vals[i*nk+k]})
		}
		e.sig = appendSig(e.sig, ls)
		e.ends = append(e.ends, len(e.sig))
	}
	sigOf := func(i int) []byte {
		start := 0
		if i > 0 {
			start = e.ends[i-1]
		}
		return e.sig[start:e.ends[i]]
	}
	e.order = e.order[:0]
	for i := 0; i < n; i++ {
		e.order = append(e.order, i)
	}
	slices.SortFunc(e.order, func(a, b int) int { return bytes.Compare(sigOf(a), sigOf(b)) })
	for j := 1; j < n; j++ {
		if bytes.Equal(sigOf(e.order[j-1]), sigOf(e.order[j])) {
			panic(fmt.Sprintf("metrics: %s reported two samples labelled %s", e.f.name, sigOf(e.order[j])))
		}
	}
	e.labels = nil
	if nk > 0 {
		e.labels = make(Labels, n*nk)
		for j, i := range e.order {
			for k, key := range keys {
				e.labels[j*nk+k] = Label{Key: key, Value: e.vals[i*nk+k]}
			}
		}
	}
	e.prevKeys = keys
	e.prevVals, e.vals = e.vals, e.prevVals
}

// family renders the collected samples ordered by signature. Samples,
// histogram distributions and buckets are each allocated once, at full
// size; the label and bucket slices of neighbouring samples share a
// backing array, each capped at its own length.
func (e *Emitter) family() Family {
	f, n, nk := e.f, e.n, len(e.f.keys)
	if n != len(e.order) || !slices.Equal(f.keys, e.prevKeys) || !slices.Equal(e.vals, e.prevVals) {
		e.sortSamples()
	}
	out := Family{Name: f.name, Help: f.help, Kind: f.kind, Samples: make([]Sample, n)}
	var hists []Hist
	var buckets []Bucket
	if f.kind == KindHistogram {
		total := 0
		for _, h := range e.hists {
			total += len(h.counts)
		}
		hists, buckets = make([]Hist, n), make([]Bucket, total)
	}
	for j, i := range e.order {
		sm := &out.Samples[j]
		if nk > 0 {
			sm.Labels = e.labels[j*nk : (j+1)*nk : (j+1)*nk]
		}
		if f.kind != KindHistogram {
			sm.Value = e.values[i]
			continue
		}
		h := e.hists[i]
		nb := len(h.counts)
		bk := buckets[:nb:nb]
		buckets = buckets[nb:]
		for b, le := range h.bounds {
			bk[b] = Bucket{Le: le, Count: h.counts[b]}
		}
		bk[nb-1] = Bucket{Le: BucketInf, Count: h.counts[nb-1]}
		hists[j] = Hist{Buckets: bk, Sum: h.sum, Count: h.n}
		sm.Hist = &hists[j]
	}
	return out
}

// Snapshot materializes every family into an immutable, fully ordered
// Snapshot: families sorted by name, samples by label signature.
// Collectors run here, and labels are rendered here.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Families: make([]Family, 0, len(r.families))}
	e := Emitter{r: r}
	for _, f := range r.families {
		if e.collect(f) > 0 {
			snap.Families = append(snap.Families, e.family())
		}
	}
	return snap
}
