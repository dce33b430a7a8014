package metrics

import (
	"bytes"
	"math"
	"slices"
	"strings"
)

// BucketInf marks the implicit +Inf histogram bucket.
const BucketInf = int64(math.MaxInt64)

// Bucket is one histogram bucket: the count of samples <= Le picoseconds
// (not cumulative; Prometheus rendering accumulates). Le == BucketInf is
// the overflow bucket.
type Bucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// Sample is one labeled value within a family. Counters and gauges use
// Value and leave Hist nil; a histogram's Hist holds its distribution.
// Behind a pointer, the distribution costs a counter or gauge sample
// 8 bytes of its 40, and a snapshot is mostly those. encoding/json
// renders a nil Hist as no fields at all, as it renders the zero one.
type Sample struct {
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value,omitempty"`
	*Hist
}

// Hist is a histogram sample's distribution. Every reader takes a nil
// Hist as the empty one: no buckets, a zero sum and a zero count.
type Hist struct {
	Buckets []Bucket `json:"buckets,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
}

// hist returns a copy of the sample's distribution, the empty one when
// Hist is nil.
func (sm *Sample) hist() Hist {
	if sm.Hist == nil {
		return Hist{}
	}
	return *sm.Hist
}

// Family is all samples sharing one metric name.
type Family struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Kind    Kind     `json:"kind"`
	Samples []Sample `json:"samples"`
}

// Snapshot is an immutable, fully ordered capture of a Registry:
// families sorted by name, samples by label signature. Equal simulations
// produce byte-identical renderings.
type Snapshot struct {
	Families []Family `json:"families"`
}

// Family returns the named family, or nil when absent.
func (s Snapshot) Family(name string) *Family {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Value returns the first sample of family name whose labels include
// every pair of ls, with ok reporting whether one was found. Histogram
// families return the sample Count.
func (s Snapshot) Value(name string, ls Labels) (float64, bool) {
	f := s.Family(name)
	if f == nil {
		return 0, false
	}
	for _, sm := range f.Samples {
		match := true
		for _, want := range ls {
			if sm.Labels.Get(want.Key) != want.Value {
				match = false
				break
			}
		}
		if match {
			if f.Kind == KindHistogram {
				return float64(sm.hist().Count), true
			}
			return sm.Value, true
		}
	}
	return 0, false
}

// Total sums every sample of a counter or gauge family (histograms sum
// their Counts).
func (s Snapshot) Total(name string) float64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	var t float64
	for _, sm := range f.Samples {
		if f.Kind == KindHistogram {
			t += float64(sm.hist().Count)
		} else {
			t += sm.Value
		}
	}
	return t
}

// Merge returns the sum of s and o: counters, gauges, and histogram
// buckets add; families and samples present in only one side pass
// through. Both snapshots must be ordered the way Registry.Snapshot and
// Merge order them — families by name, samples by label signature — and
// the result is ordered the same way; neither input is modified.
// Merging is a left fold — the experiment harness folds run snapshots in
// submission order, which with these commutative-in-theory but
// float-sensitive sums is what makes merged output byte-identical at any
// worker count.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	var m Merged
	m.Add(s)
	m.Add(o)
	return m.snap
}

// Merged accumulates run snapshots in the order Add is called. The
// experiment harness calls Add from the generator goroutine in sweep
// submission order, never from workers, preserving determinism.
type Merged struct {
	snap Snapshot
	// shared records that Snapshot handed snap out; the next Add folds
	// into a copy, so a returned snapshot never changes.
	shared bool
	a, b   []byte // signature scratch for samples that do not line up
}

// Add folds one run's snapshot into the accumulator in place: one walk
// over both family lists and, in each family both carry, one walk over
// both sample lists. Storage is allocated only for what the accumulator
// has not seen yet; s must be ordered as Merge requires and is not
// modified.
func (m *Merged) Add(s Snapshot) {
	if m.shared {
		prev := m.snap
		m.snap, m.shared = Snapshot{}, false
		m.Add(prev)
	}
	m.snap.Families = mergeSorted(m.snap.Families, s.Families,
		func(a, b *Family) int { return strings.Compare(a.Name, b.Name) },
		func(d, o *Family) { d.Samples = mergeSorted(d.Samples, o.Samples, m.compare, addSample, ownSample) },
		func(f Family) Family {
			f.Samples = slices.Clone(f.Samples)
			for i := range f.Samples {
				f.Samples[i] = ownSample(f.Samples[i])
			}
			return f
		})
}

// Snapshot returns the merged result (zero Snapshot before any Add).
func (m *Merged) Snapshot() Snapshot {
	m.shared = true
	return m.snap
}

// mergeSorted folds src into the accumulator's dst, both sorted by cmp,
// in one walk: add combines equal elements into dst's, and own copies an
// element only src has into storage the accumulator may add into. When
// the two line up element for element — every Add after the first, once
// an experiment's runs report the same families and labels — it adds in
// place and returns dst.
func mergeSorted[T any](dst, src []T, cmp func(a, b *T) int, add func(d, o *T), own func(T) T) []T {
	aligned := len(dst) == len(src)
	for i := 0; aligned && i < len(dst); i++ {
		aligned = cmp(&dst[i], &src[i]) == 0
	}
	if aligned {
		for i := range dst {
			add(&dst[i], &src[i])
		}
		return dst
	}
	out := make([]T, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) || j < len(src) {
		c := -1
		switch {
		case i == len(dst):
			c = 1
		case j < len(src):
			c = cmp(&dst[i], &src[j])
		}
		switch {
		case c < 0:
			out = append(out, dst[i])
			i++
		case c > 0:
			out = append(out, own(src[j]))
			j++
		default:
			add(&dst[i], &src[j])
			out = append(out, dst[i])
			i++
			j++
		}
	}
	return out
}

// compare orders two samples by label signature.
func (m *Merged) compare(a, b *Sample) int {
	if slices.Equal(a.Labels, b.Labels) {
		return 0
	}
	m.a, m.b = appendSig(m.a[:0], a.Labels), appendSig(m.b[:0], b.Labels)
	return bytes.Compare(m.a, m.b)
}

// addSample folds o into d: values, sums and counts add, and buckets add
// when the two layouts match. d must own its Hist (ownSample).
func addSample(d, o *Sample) {
	d.Value += o.Value
	if o.Hist == nil {
		return
	}
	if d.Hist == nil {
		d.Hist = new(Hist)
	}
	d.Sum += o.Sum
	d.Count += o.Count
	if len(d.Buckets) == len(o.Buckets) {
		for k := range d.Buckets {
			d.Buckets[k].Count += o.Buckets[k].Count
		}
	}
}

// ownSample copies a sample's distribution into storage the accumulator
// may add into. Labels are never modified, so they stay shared.
func ownSample(sm Sample) Sample {
	if sm.Hist != nil {
		h := *sm.Hist
		h.Buckets = slices.Clone(h.Buckets)
		sm.Hist = &h
	}
	return sm
}
