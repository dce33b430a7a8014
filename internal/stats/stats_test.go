package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if r.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	if r.Max() != 9 {
		t.Errorf("Max = %v, want 9", r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Max() != 0 {
		t.Error("empty Running should report zeros")
	}
	r.Observe(-3)
	if r.Mean() != -3 || r.Max() != -3 {
		t.Error("single-sample mean/max wrong")
	}
}

func TestRunningMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		n := 0
		min := math.Inf(1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Keep magnitudes sane: Welford is not robust to values near
			// the float64 overflow threshold, and no simulated latency is.
			x = math.Mod(x, 1e9)
			r.Observe(x)
			min = math.Min(min, x)
			n++
		}
		if n == 0 {
			return true
		}
		return r.Mean() >= min-1e-9 && r.Mean() <= r.Max()+1e-9 && r.N() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, x := range []float64{1, 2, 3, 100, 1000} {
		h.Observe(x)
	}
	h.Observe(-5)         // ignored
	h.Observe(math.NaN()) // ignored
	if h.N() != 5 {
		t.Errorf("N = %d, want 5", h.N())
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %v", h.Max())
	}
	if q := h.Quantile(0.5); q < 2 || q > 8 {
		t.Errorf("median estimate %v outside [2,8]", q)
	}
	if q := h.Quantile(1.0); q < 1000 {
		t.Errorf("p100 estimate %v below true max", q)
	}
	if q := h.Quantile(-1); q <= 0 {
		t.Errorf("clamped quantile %v", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.9) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []uint16) bool {
		var h Histogram
		for _, x := range xs {
			h.Observe(float64(x))
		}
		prev := 0.0
		for q := 0.1; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFigureRender(t *testing.T) {
	f := NewFigure("fig7", "Client bottleneck", "threads", "time (ms)")
	s1 := f.AddSeries("1 server")
	s1.Add(1, 100)
	s1.Add(2, 50)
	s1.Add(4, 48)
	s2 := f.AddSeries("4 servers")
	s2.Add(4, 47)
	f.Note("saturation at %d threads", 2)

	out := f.Render()
	for _, want := range []string{"fig7", "1 server", "4 servers", "100", "48", "saturation at 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureLabeledPoints(t *testing.T) {
	f := NewFigure("fig8", "Server congestion", "config", "time")
	s := f.AddSeries("control thread")
	s.AddLabeled("1n x 4t", 1, 10)
	s.AddLabeled("3n x 4t", 3, 10)
	s.AddLabeled("6n x 4t", 6, 25)
	out := f.Render()
	if !strings.Contains(out, "3n x 4t") {
		t.Errorf("labeled x missing:\n%s", out)
	}
}

func TestFindSeries(t *testing.T) {
	f := NewFigure("x", "", "", "")
	s := f.AddSeries("a")
	if f.FindSeries("a") != s {
		t.Error("FindSeries failed to locate series")
	}
	if f.FindSeries("b") != nil {
		t.Error("FindSeries invented a series")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.5:     "3.5",
		1234567: "1234567",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCSVExport(t *testing.T) {
	f := NewFigure("fig6", "Latency", "hops", "µs")
	a := f.AddSeries("mesh")
	a.Add(1, 0.9)
	a.Add(2, 1.2)
	b := f.AddSeries("htoe")
	b.Add(1, 4.8)
	f.Note("a note")
	out, err := f.CSV()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "hops,mesh,htoe" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,0.9,4.8" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "2,1.2," {
		t.Errorf("row 2 = %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "# a note") {
		t.Errorf("note row = %q", lines[3])
	}
}

func TestMarkdownExport(t *testing.T) {
	f := NewFigure("fig7", "Bottleneck", "config", "ms")
	s := f.AddSeries("1 server")
	s.AddLabeled("2t", 1, 0.55)
	out := f.Markdown()
	for _, want := range []string{"### fig7", "| config | 1 server |", "| 2t | 0.55 |", "*(ms)*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestChartRendering(t *testing.T) {
	f := NewFigure("fig9", "U-shape", "fanout", "µs")
	s := f.AddSeries("swap")
	for i, y := range []float64{500, 300, 200, 300, 500} {
		s.Add(float64(i*100+8), y)
	}
	r := f.AddSeries("remote")
	for i := 0; i < 5; i++ {
		r.Add(float64(i*100+8), 20)
	}
	out := f.Chart(40, 10)
	for _, want := range []string{"fig9", "* swap", "o remote", "(µs)", "fanout"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The flat series occupies the bottom row; the U-shape's minimum is
	// strictly below its endpoints.
	if !strings.Contains(out, "o") || !strings.Contains(out, "*") {
		t.Error("glyphs missing")
	}
}

func TestChartCategoricalAndEdgeCases(t *testing.T) {
	f := NewFigure("fig8", "knee", "load", "ms")
	s := f.AddSeries("control")
	s.AddLabeled("none", 0, 1)
	s.AddLabeled("3nx4t", 1, 1)
	s.AddLabeled("6nx4t", 2, 3)
	out := f.Chart(30, 8)
	if !strings.Contains(out, "none ... 6nx4t") {
		t.Errorf("categorical x labels missing:\n%s", out)
	}
	// Degenerate figures render without panicking.
	empty := NewFigure("x", "empty", "", "")
	if !strings.Contains(empty.Chart(40, 10), "no data") {
		t.Error("empty chart should say so")
	}
	flat := NewFigure("y", "flat", "", "")
	fs := flat.AddSeries("s")
	fs.Add(1, 5)
	if flat.Chart(2, 2) == "" {
		t.Error("tiny chart empty")
	}
}

func TestHistogramSubUnitBucket(t *testing.T) {
	var h Histogram
	// Sub-unit samples file into bucket 0 = [0,1): their quantile upper
	// bound is 1, not 2 — sub-nanosecond latencies must not inflate
	// estimates (the doc'd bucket boundary).
	for i := 0; i < 10; i++ {
		h.Observe(0.25)
	}
	if q := h.Quantile(0.99); q != 1 {
		t.Errorf("p99 of sub-unit samples = %v, want 1", q)
	}
	// Mixing in large samples keeps bucket separation: the median stays
	// at the sub-unit bound, the tail reflects the large bucket.
	for i := 0; i < 2; i++ {
		h.Observe(1000)
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("median = %v, want 1", q)
	}
	if q := h.Quantile(1.0); q < 1000 {
		t.Errorf("p100 = %v, want >= 1000", q)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	// Each power of two is the *lower* edge of its bucket, so the
	// quantile upper bound is the next power: Observe(2^k) -> 2^(k+1).
	for _, c := range []struct{ x, want float64 }{
		{0, 1}, {0.5, 1}, {1, 2}, {1.5, 2}, {2, 4}, {3, 4}, {4, 8}, {1024, 2048},
	} {
		var h Histogram
		h.Observe(c.x)
		if q := h.Quantile(1.0); q != c.want {
			t.Errorf("Quantile after Observe(%v) = %v, want %v", c.x, q, c.want)
		}
	}
}
