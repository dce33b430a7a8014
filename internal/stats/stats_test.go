package stats

import (
	"strings"
	"testing"
)

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
