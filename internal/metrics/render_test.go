package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refPrometheus is the fmt-based renderer WritePrometheus replaced,
// kept verbatim as the reference its output must match byte for byte.
func refPrometheus(s Snapshot) string {
	var b strings.Builder
	for _, f := range s.Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, sm := range f.Samples {
			if f.Kind == KindHistogram {
				var h Hist // a nil Hist is the empty distribution
				if sm.Hist != nil {
					h = *sm.Hist
				}
				var cum uint64
				for _, bk := range h.Buckets {
					cum += bk.Count
					le := "+Inf"
					if bk.Le != BucketInf {
						le = formatFloat(float64(bk.Le) / 1e12)
					}
					fmt.Fprintf(&b, "%s_bucket{%s} %d\n", f.Name, promLabels(sm.Labels, le), cum)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, promLabelBlock(sm.Labels), formatFloat(float64(h.Sum)/1e12))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, promLabelBlock(sm.Labels), h.Count)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.Name, promLabelBlock(sm.Labels), formatFloat(sm.Value))
		}
	}
	return b.String()
}

// formatFloat prints integral values without an exponent or trailing
// zeros so counters read naturally ("42", not "4.2e+01").
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabelBlock renders {k="v",...} or "" when unlabeled.
func promLabelBlock(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	return "{" + joinLabels(ls) + "}"
}

// promLabels renders the label pairs plus the le bucket label.
func promLabels(ls Labels, le string) string {
	if len(ls) == 0 {
		return `le="` + le + `"`
	}
	return joinLabels(ls) + `,le="` + le + `"`
}

func joinLabels(ls Labels) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + `="` + labelEscaper.Replace(l.Value) + `"`
	}
	return strings.Join(parts, ",")
}

// labelEscaper escapes Prometheus label values. One serves every
// rendering: a Replacer is safe for concurrent use.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// refJSON is the reflection-driven rendering WriteJSON must match.
func refJSON(s Snapshot) (string, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	return string(b) + "\n", err
}

// fuzzStrings and fuzzFloats are the pools fuzzSnapshot draws from,
// beside the fuzzer's own two strings and two floats: every escape
// class JSON and the Prometheus label format know, and the numbers at
// encoding/json's format boundaries.
var (
	fuzzStrings = []string{"", "ncdsm_x_total", `<>&"\`, "\x00\x1f\n\t\x7f", "\xff\xfe", "\u2028\u2029", "  ", "é"}
	fuzzFloats  = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 1e20, 42, 0.5, -3.25, 1e15, math.NaN(), math.Inf(1), math.Inf(-1)}
)

// fuzzSnapshot decodes a snapshot from shape, one byte per choice: nil,
// empty or a few families, samples, labels and buckets; names, helps,
// kinds and label strings from the pools; values, le edges, sums and
// counts from the pools or the fuzzer's numbers. A shape that runs out
// reads zeros, so every input is some snapshot.
func fuzzSnapshot(shape []byte, strs []string, floats []float64, le int64, n uint64) Snapshot {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		c := shape[0]
		shape = shape[1:]
		return int(c)
	}
	str := func() string { return strs[next()%len(strs)] }
	// count is nil (-1), empty (0) or 1 to 3 elements.
	count := func() int { return next()%5 - 1 }
	var s Snapshot
	nf := count()
	if nf >= 0 {
		s.Families = []Family{}
	}
	for i := 0; i < nf; i++ {
		f := Family{Name: str(), Help: str()}
		switch next() % 4 {
		case 0:
			f.Kind = KindCounter
		case 1:
			f.Kind = KindGauge
		case 2:
			f.Kind = KindHistogram
		default:
			f.Kind = Kind(str())
		}
		ns := count()
		if ns >= 0 {
			f.Samples = []Sample{}
		}
		for j := 0; j < ns; j++ {
			var sm Sample
			nl := count()
			if nl >= 0 {
				sm.Labels = Labels{}
			}
			for k := 0; k < nl; k++ {
				sm.Labels = append(sm.Labels, Label{Key: str(), Value: str()})
			}
			if c := next(); c%2 == 1 {
				sm.Value = floats[c/2%len(floats)]
			}
			h := &Hist{}
			nb := count()
			if nb >= 0 {
				h.Buckets = []Bucket{}
			}
			for k := 0; k < nb; k++ {
				bk := Bucket{Le: BucketInf, Count: uint64(next())}
				switch next() % 3 {
				case 0:
					bk.Le = le
				case 1:
					bk.Le = int64(next()) * 1_000_000
				}
				h.Buckets = append(h.Buckets, bk)
			}
			sum := next() % 3
			switch sum {
			case 1:
				h.Sum = le
			case 2:
				h.Sum, h.Count = int64(n), n
			}
			// Nil buckets and no sum leave the sample without a
			// distribution, as a counter or gauge sample is.
			if nb >= 0 || sum != 0 {
				sm.Hist = h
			}
			f.Samples = append(f.Samples, sm)
		}
		s.Families = append(s.Families, f)
	}
	return s
}

// catch runs fn and returns its result, or reports that it panicked.
func catch(fn func() string) (out string, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return fn(), false
}

// FuzzSnapshotRender checks both renderers against their references on
// arbitrary snapshots: JSON() and WriteJSON match json.MarshalIndent
// plus a newline, and fail exactly where it fails (a NaN or infinite
// value); Prometheus() and WritePrometheus match the fmt-based renderer
// they replaced.
func FuzzSnapshotRender(f *testing.F) {
	// Seeds, decoded in the order fuzzSnapshot reads. Strings: a, b, "",
	// "ncdsm_x_total", <>&"\, control bytes, invalid UTF-8, U+2028,
	// spaces, é (indices 0-9). A value byte 2i+1 picks float i: x, y, 0,
	// -0, 1e-7, 1e-6, 1e21, 1e20, 42, 0.5, -3.25, 1e15, NaN, +Inf, -Inf.
	//
	// A histogram (labeled, three buckets ending in +Inf, sum and count;
	// then empty labels, nil buckets) and a counter (nil labels with x;
	// two labels with escapes and 1e21 and empty buckets; U+2028 with -0).
	f.Add([]byte{3,
		0, 3, 2, 3, 2, 1, 9, 0, 4, 2, 0, 5, 1, 3, 1, 2, 2, 1, 0, 0, 1,
		3, 2, 0, 4, 0, 1, 0, 0, 3, 1, 4, 8, 5, 13, 1, 0, 2, 1, 7, 7, 0, 0},
		"ncdsm_lat_seconds", "node", 1.5, 1e-7, int64(1_500_000), uint64(7))
	// Escapes in names, helps, kinds and keys: a family with empty
	// samples and an invalid-UTF-8 kind, a gauge at 1e-7, and a
	// histogram with nil samples.
	f.Add([]byte{4, 4, 5, 3, 6, 1, 7, 0, 1, 2, 2, 6, 0, 9, 0, 0, 9, 8, 2, 0},
		"\x01\xc3\x28", "ok", 0.0, 0.0, int64(0), uint64(0))
	// Each character that sends a string down encoding/json's path, alone
	// in a help and a label value, so dropping any one check fails.
	for _, c := range []string{`"`, `\`, "<", ">", "&", "\x01", "\xff", "\u2028"} {
		f.Add([]byte{2, 3, 0, 0, 2, 2, 1, 0, 0, 0, 0}, "a"+c+"b", "node", 0.0, 0.0, int64(0), uint64(0))
	}
	// Nil and empty families; a sample with no fields ({}) beside a
	// family with empty samples.
	f.Add([]byte{0}, "", "", 0.0, 0.0, int64(0), uint64(0))
	f.Add([]byte{1}, "", "", 0.0, 0.0, int64(0), uint64(0))
	f.Add([]byte{3, 3, 2, 0, 2, 0, 0, 0, 0, 3, 2, 0, 1}, "", "", 0.0, 0.0, int64(0), uint64(0))
	// The fuzzer's own numbers just inside the 'f' form: 1e-6 and 1e20.
	f.Add([]byte{2, 3, 2, 0, 3, 0, 1, 0, 0, 0, 3, 0, 0}, "", "", 1e-6, 1e20, int64(0), uint64(0))
	// NaN, +Inf and -Inf: JSON refuses them, Prometheus prints them.
	f.Add([]byte{2, 3, 2, 1, 2, 0, 25, 0, 0}, "", "", 0.0, 0.0, int64(0), uint64(0))
	f.Add([]byte{2, 3, 2, 1, 2, 0, 27, 0, 0}, "", "", 0.0, 0.0, int64(0), uint64(0))
	f.Add([]byte{2, 3, 2, 1, 2, 0, 29, 0, 0}, "", "", 0.0, 0.0, int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, shape []byte, a, b string, x, y float64, le int64, n uint64) {
		s := fuzzSnapshot(shape, append([]string{a, b}, fuzzStrings...), append([]float64{x, y}, fuzzFloats...), le, n)

		want, wantErr := refJSON(s)
		got, panicked := catch(s.JSON)
		var buf bytes.Buffer
		err := s.WriteJSON(&buf)
		switch {
		case (wantErr != nil) != panicked || (wantErr != nil) != (err != nil):
			t.Fatalf("MarshalIndent err %v, JSON() panicked %v, WriteJSON err %v", wantErr, panicked, err)
		case wantErr == nil && got != want:
			t.Fatalf("JSON() =\n%s\nwant\n%s", got, want)
		case wantErr == nil && buf.String() != want:
			t.Fatalf("WriteJSON wrote\n%s\nwant\n%s", buf.String(), want)
		}

		wantProm := refPrometheus(s)
		buf.Reset()
		if err := s.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if got := s.Prometheus(); got != wantProm {
			t.Fatalf("Prometheus() =\n%q\nwant\n%q", got, wantProm)
		}
		if buf.String() != wantProm {
			t.Fatalf("WritePrometheus wrote\n%q\nwant\n%q", buf.String(), wantProm)
		}
	})
}

// failAfter is a writer that fails every write after its first n.
type failAfter struct{ n, calls int }

var errWrite = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.n {
		return 0, errWrite
	}
	return len(p), nil
}

// TestRenderersStopOnWriteError: a snapshot larger than the render
// buffer reaches its writer in several writes, and the first failed
// write ends the rendering with that error.
func TestRenderersStopOnWriteError(t *testing.T) {
	r := NewRegistry()
	r.Counters("ncdsm_x_total", "", []string{"node"}, func(e *Emitter) {
		for i := 0; i < 5000; i++ {
			e.Value(float64(i+1), e.Itoa(i))
		}
	})
	s := r.Snapshot()
	for name, write := range map[string]func(*failAfter) error{
		"WriteJSON":       func(w *failAfter) error { return s.WriteJSON(w) },
		"WritePrometheus": func(w *failAfter) error { return s.WritePrometheus(w) },
	} {
		all := &failAfter{n: math.MaxInt}
		if err := write(all); err != nil || all.calls < 3 {
			t.Fatalf("%s: %d writes, err %v; want several and no error", name, all.calls, err)
		}
		w := &failAfter{n: 1}
		if err := write(w); !errors.Is(err, errWrite) || w.calls != 2 {
			t.Errorf("%s: err %v after %d writes, want %v after 2", name, err, w.calls, errWrite)
		}
	}
}
