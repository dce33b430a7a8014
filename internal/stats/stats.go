// Package stats provides the measurement plumbing shared by the
// experiment harness: running statistics, latency histograms,
// and labeled series rendered as text tables matching the rows/series the
// paper's figures report.
//
// Ownership: none of these collectors are internally synchronized, by
// design — they sit on simulation hot paths. Each collector is owned by
// exactly one goroutine at a time. Under the parallel harness
// (internal/runner) that means: collectors created inside a run
// (thread latency histograms, resource counters) are owned by the
// worker executing that run; Figure and Series are owned by the
// generator goroutine, which appends merged results only after the
// futures deliver them, in submission order. Workers never touch a
// Figure directly. Sharing a collector across concurrent runs is a
// race; give every run its own and merge at the Wait point.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Running accumulates count/mean/max online. The mean is Welford's
// incremental update, which the pinned simulation digests depend on bit
// for bit.
type Running struct {
	n         uint64
	mean, max float64
}

// Observe adds one sample.
func (r *Running) Observe(x float64) {
	if r.n == 0 || x > r.max {
		r.max = x
	}
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
}

// N returns the sample count.
func (r *Running) N() uint64 { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Max returns the largest sample (0 with no samples).
func (r *Running) Max() float64 { return r.max }

// Histogram is a log2-bucketed latency histogram. Bucket 0 holds
// samples in [0, 1); bucket i (i >= 1) holds samples in [2^(i-1), 2^i);
// the last bucket also absorbs anything larger. It keeps exact
// min/max/mean alongside the buckets.
type Histogram struct {
	buckets [64]uint64
	run     Running
}

// Observe records one non-negative sample.
func (h *Histogram) Observe(x float64) {
	if x < 0 || math.IsNaN(x) {
		return
	}
	h.run.Observe(x)
	b := 0
	if x >= 1 {
		b = int(math.Log2(x)) + 1
		if b > 63 {
			b = 63
		}
	}
	h.buckets[b]++
}

// N returns the sample count.
func (h *Histogram) N() uint64 { return h.run.N() }

// Mean returns the exact sample mean.
func (h *Histogram) Mean() float64 { return h.run.Mean() }

// Max returns the exact maximum sample.
func (h *Histogram) Max() float64 { return h.run.Max() }

// Quantile returns an upper-bound estimate of the q-quantile (0..1) from
// the log buckets: 2^i for bucket i, each bucket's exclusive upper edge.
func (h *Histogram) Quantile(q float64) float64 {
	if h.run.N() == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.run.N())))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			return math.Pow(2, float64(i))
		}
	}
	return h.run.Max()
}

// Point is one (x, y) sample of a labeled series.
type Point struct {
	X, Y  float64
	Label string // optional x label (e.g. "4t, 2 hops")
}

// Series is a named sequence of points, the unit a figure plots.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// AddLabeled appends a labeled point.
func (s *Series) AddLabeled(label string, x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Label: label})
}

// Figure is a set of series plus identifying metadata; the harness's unit
// of output. Rendered, it prints the same rows/series the paper reports.
type Figure struct {
	ID     string // e.g. "fig7"
	Title  string
	XLabel string
	YLabel string
	Series []*Series
	Notes  []string
}

// NewFigure creates an empty figure.
func NewFigure(id, title, xlabel, ylabel string) *Figure {
	return &Figure{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, attaches, and returns a new series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Note attaches a free-text observation to the rendered figure.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// FindSeries returns the series with the given name, or nil.
func (f *Figure) FindSeries(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Render prints the figure as an aligned text table: one row per distinct
// x value, one column per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)

	// Collect the union of x values (preserving label text when present).
	type xkey struct {
		x     float64
		label string
	}
	seen := map[xkey]bool{}
	var xs []xkey
	for _, s := range f.Series {
		for _, p := range s.Points {
			k := xkey{p.X, p.Label}
			if !seen[k] {
				seen[k] = true
				xs = append(xs, k)
			}
		}
	}
	sort.SliceStable(xs, func(i, j int) bool {
		if xs[i].x != xs[j].x {
			return xs[i].x < xs[j].x
		}
		return xs[i].label < xs[j].label
	})

	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, k := range xs {
		label := k.label
		if label == "" {
			label = trimFloat(k.x)
		}
		row := []string{label}
		for _, s := range f.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == k.x && p.Label == k.label {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
			_ = i
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := range row {
				b.WriteString(strings.Repeat("-", widths[i]) + "  ")
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "(%s)\n", f.YLabel)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
