// Package stats renders the experiment harness's output: labeled series
// and the figures that group them, printed as text tables (and charts,
// CSV and Markdown) matching the rows/series the paper's figures report.
//
// Ownership: Figure and Series are not internally synchronized. Under
// the parallel harness (internal/runner) they are owned by the
// generator goroutine, which appends merged results only after the
// futures deliver them, in submission order. Workers never touch a
// Figure directly.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

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
	rows := f.rows("-", trimFloat)
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
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

// rows lays the figure out as a table: a header (the x label, then each
// series name), then one row per x key in display order. A row starts
// with the key's label (its x value when unlabeled), then holds each
// series' y at that key in format, or missing where the series has no
// point there.
func (f *Figure) rows(missing string, format func(float64) string) [][]string {
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, k := range f.xKeys() {
		label := k.label
		if label == "" {
			label = trimFloat(k.x)
		}
		row := []string{label}
		for _, s := range f.Series {
			cell := missing
			for _, p := range s.Points {
				if p.X == k.x && p.Label == k.label {
					cell = format(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return rows
}

// figXKey identifies one table row: an x value and its label.
type figXKey struct {
	x     float64
	label string
}

// xKeys returns the union of x values across series in display order.
func (f *Figure) xKeys() []figXKey {
	seen := map[figXKey]bool{}
	var xs []figXKey
	for _, s := range f.Series {
		for _, p := range s.Points {
			k := figXKey{p.X, p.Label}
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
	return xs
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
