package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// counter registers a counter family with one sample fixed at v per
// label set; ls holds the label values in key order.
func counter(r *Registry, name string, keys []string, v float64, ls ...[]string) {
	r.Counters(name, "", keys, func(e *Emitter) {
		for _, vals := range ls {
			e.Value(v, vals...)
		}
	})
}

// histogram registers a histogram family reporting h, unlabeled.
func histogram(r *Registry, name string, h *Histogram) {
	r.Histograms(name, "", nil, func(e *Emitter) { e.Histogram(h) })
}

func TestCounterGaugeSnapshot(t *testing.T) {
	r := NewRegistry()
	tallies := []uint64{7, 5}
	r.Counters("ncdsm_test_ops_total", "ops", []string{"node"}, func(e *Emitter) {
		for i, v := range tallies {
			e.Value(float64(v), e.Itoa(i))
		}
	})
	level := 2.5
	r.Gauges("ncdsm_test_level", "level", nil, func(e *Emitter) { e.Value(level) })
	tally := &tallies[0]

	s := r.Snapshot()
	if v, ok := s.Value("ncdsm_test_ops_total", L("node", "1")); !ok || v != 5 {
		t.Errorf("counter = %v,%v want 5,true", v, ok)
	}
	if v, ok := s.Value("ncdsm_test_ops_total", L("node", "0")); !ok || v != 7 {
		t.Errorf("counter func = %v,%v want 7,true", v, ok)
	}
	if got := s.Total("ncdsm_test_ops_total"); got != 12 {
		t.Errorf("Total = %v want 12", got)
	}
	if v, ok := s.Value("ncdsm_test_level", nil); !ok || v != 2.5 {
		t.Errorf("gauge = %v,%v want 2.5,true", v, ok)
	}

	// Sampling is lazy: moving the tally and the level changes the next
	// snapshot but not the one already taken.
	*tally, level = 100, -1
	if v, _ := s.Value("ncdsm_test_ops_total", L("node", "0")); v != 7 {
		t.Errorf("old snapshot mutated: %v", v)
	}
	if v, _ := s.Value("ncdsm_test_level", nil); v != 2.5 {
		t.Errorf("old gauge sample mutated: %v", v)
	}
	next := r.Snapshot()
	if v, _ := next.Value("ncdsm_test_ops_total", L("node", "0")); v != 100 {
		t.Errorf("new snapshot = %v want 100", v)
	}
	if v, _ := next.Value("ncdsm_test_level", nil); v != -1 {
		t.Errorf("new gauge sample = %v want -1", v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]int64{10, 20, 50})
	histogram(r, "ncdsm_test_latency_seconds", h)
	for _, v := range []int64{5, 10, 11, 60, -3} {
		h.Observe(v)
	}
	if h.n != 5 {
		t.Fatalf("n = %d want 5", h.n)
	}
	if h.sum != 5+10+11+60+0 {
		t.Fatalf("sum = %d want 86", h.sum)
	}
	s := r.Snapshot()
	f := s.Family("ncdsm_test_latency_seconds")
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("missing histogram family")
	}
	want := []uint64{3, 1, 0, 1} // <=10: {5,10,-3}, <=20: {11}, <=50: {}, +Inf: {60}
	for i, bk := range f.Samples[0].Buckets {
		if bk.Count != want[i] {
			t.Errorf("bucket %d = %d want %d", i, bk.Count, want[i])
		}
	}
	if f.Samples[0].Buckets[3].Le != BucketInf {
		t.Errorf("last bucket not +Inf")
	}
}

// TestSampleLayout: only histogram samples carry a distribution, and a
// histogram sample without one reads as the empty distribution in
// Value, Total, WritePrometheus and Merge.
func TestSampleLayout(t *testing.T) {
	if got := unsafe.Sizeof(Sample{}); got > 40 {
		t.Errorf("a Sample takes %d bytes, want at most 40", got)
	}
	r := NewRegistry()
	counter(r, "ncdsm_ops_total", []string{"node"}, 3, []string{"0"}, []string{"1"})
	r.Gauges("ncdsm_level", "", nil, func(e *Emitter) { e.Value(2.5) })
	h := NewHistogram([]int64{10})
	h.Observe(5)
	r.Histograms("ncdsm_lat_seconds", "", []string{"node"}, func(e *Emitter) {
		e.Histogram(h, "3")
		e.Histogram(h, "4")
	})
	full := r.Snapshot()
	for _, f := range full.Families {
		for _, sm := range f.Samples {
			if (sm.Hist != nil) != (f.Kind == KindHistogram) {
				t.Errorf("%s (%s) sample %v has Hist %v", f.Name, f.Kind, sm.Labels, sm.Hist)
			}
		}
	}

	empty := Snapshot{Families: []Family{{Name: "ncdsm_lat_seconds", Kind: KindHistogram, Samples: []Sample{{Labels: L("node", "3")}}}}}
	if v, ok := empty.Value("ncdsm_lat_seconds", nil); !ok || v != 0 {
		t.Errorf("Value = %v,%v want 0,true", v, ok)
	}
	if got := empty.Total("ncdsm_lat_seconds"); got != 0 {
		t.Errorf("Total = %v want 0", got)
	}
	var prom strings.Builder
	if err := empty.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE ncdsm_lat_seconds histogram\n" +
		`ncdsm_lat_seconds_sum{node="3"} 0` + "\n" +
		`ncdsm_lat_seconds_count{node="3"} 0` + "\n"
	if prom.String() != want {
		t.Errorf("WritePrometheus wrote\n%s\nwant\n%s", prom.String(), want)
	}
	if v, _ := empty.Merge(empty).Value("ncdsm_lat_seconds", nil); v != 0 {
		t.Errorf("empty merged with itself counts %v", v)
	}
	for _, pair := range [][2]Snapshot{{empty, full}, {full, empty}} {
		m := pair[0].Merge(pair[1])
		if v, _ := m.Value("ncdsm_lat_seconds", L("node", "3")); v != 1 {
			t.Errorf("merged count = %v want 1", v)
		}
		if got := m.Total("ncdsm_lat_seconds"); got != 2 {
			t.Errorf("merged Total = %v want 2", got)
		}
	}
	if empty.Families[0].Samples[0].Hist != nil {
		t.Error("Merge gave its input a distribution")
	}
}

func TestSnapshotOrderingDeterministic(t *testing.T) {
	build := func(families, nodes []int) string {
		r := NewRegistry()
		for _, f := range families {
			switch f {
			case 0:
				r.Counters("ncdsm_b_total", "", []string{"node"}, func(e *Emitter) {
					for _, n := range nodes {
						e.Value(float64(n), e.Itoa(n))
					}
				})
			case 1:
				counter(r, "ncdsm_a_total", []string{"node", "zone"}, 1, []string{"1", "x"})
			}
		}
		return r.Snapshot().Prometheus()
	}
	a := build([]int{0, 1}, []int{1, 2, 10, 11})
	b := build([]int{1, 0}, []int{11, 2, 1, 10})
	if a != b {
		t.Errorf("registration or enumeration order leaked into rendering:\n%s\nvs\n%s", a, b)
	}
	want := "# TYPE ncdsm_a_total counter\n" +
		`ncdsm_a_total{node="1",zone="x"} 1` + "\n" +
		"# TYPE ncdsm_b_total counter\n" +
		`ncdsm_b_total{node="1"} 1` + "\n" +
		`ncdsm_b_total{node="10"} 10` + "\n" +
		`ncdsm_b_total{node="11"} 11` + "\n" +
		`ncdsm_b_total{node="2"} 2` + "\n"
	if a != want {
		t.Errorf("samples not in signature order:\n%s\nwant\n%s", a, want)
	}
}

func TestMergeFoldsInOrder(t *testing.T) {
	mk := func(n float64, lat int64) Snapshot {
		r := NewRegistry()
		counter(r, "ncdsm_ops_total", []string{"node"}, n, []string{"0"})
		h := NewHistogram([]int64{10, 100})
		h.Observe(lat)
		histogram(r, "ncdsm_lat_seconds", h)
		return r.Snapshot()
	}
	var m Merged
	m.Add(mk(1, 5))
	m.Add(mk(2, 50))
	m.Add(mk(3, 500))
	s := m.Snapshot()
	if got := s.Total("ncdsm_ops_total"); got != 6 {
		t.Errorf("merged counter = %v want 6", got)
	}
	f := s.Family("ncdsm_lat_seconds")
	if f == nil {
		t.Fatal("histogram family lost in merge")
	}
	sm := f.Samples[0]
	if sm.Count != 3 || sm.Sum != 555 {
		t.Errorf("merged histogram count/sum = %d/%d want 3/555", sm.Count, sm.Sum)
	}
	wantBk := []uint64{1, 1, 1}
	for i, bk := range sm.Buckets {
		if bk.Count != wantBk[i] {
			t.Errorf("merged bucket %d = %d want %d", i, bk.Count, wantBk[i])
		}
	}
	// Disjoint families and samples pass through.
	r := NewRegistry()
	counter(r, "ncdsm_other_total", nil, 9, nil)
	s2 := s.Merge(r.Snapshot())
	if got := s2.Total("ncdsm_other_total"); got != 9 {
		t.Errorf("disjoint family = %v want 9", got)
	}
	if got := s2.Total("ncdsm_ops_total"); got != 6 {
		t.Errorf("existing family disturbed: %v", got)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counters("ncdsm_x_total", "things that happened", []string{"node"}, func(e *Emitter) { e.Value(42, "0") })
	h := NewHistogram([]int64{1_000_000})
	h.Observe(500_000)
	r.Histograms("ncdsm_y_seconds", "a latency", []string{"node"}, func(e *Emitter) { e.Histogram(h, "0") })
	out := r.Snapshot().Prometheus()
	for _, want := range []string{
		"# HELP ncdsm_x_total things that happened",
		"# TYPE ncdsm_x_total counter",
		`ncdsm_x_total{node="0"} 42`,
		"# TYPE ncdsm_y_seconds histogram",
		`ncdsm_y_seconds_bucket{node="0",le="1e-06"} 1`,
		`ncdsm_y_seconds_bucket{node="0",le="+Inf"} 1`,
		`ncdsm_y_seconds_count{node="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	counter(r, "ncdsm_x_total", []string{"node"}, 7, []string{"3"})
	var back Snapshot
	if err := json.Unmarshal([]byte(r.Snapshot().JSON()), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if v, ok := back.Value("ncdsm_x_total", L("node", "3")); !ok || v != 7 {
		t.Errorf("round trip = %v,%v want 7,true", v, ok)
	}
}

func TestViews(t *testing.T) {
	r := NewRegistry()
	r.Counters(FamCacheHits, "", []string{"node"}, func(e *Emitter) {
		e.Value(10, "1")
		e.Value(5, "0")
	})
	counter(r, FamCacheMisses, []string{"node"}, 2, []string{"1"})
	link := []string{"class", "from", "to"}
	counter(r, FamMeshLinkFrames, link, 3, []string{"mesh", "0", "1"})
	counter(r, FamMeshLinkBytes, link, 192, []string{"mesh", "0", "1"})
	s := r.Snapshot()

	nodes := s.Nodes()
	if len(nodes) != 2 || nodes[0].Node != 0 || nodes[1].Node != 1 {
		t.Fatalf("nodes = %+v", nodes)
	}
	if nodes[1].CacheHits != 10 || nodes[1].CacheMisses != 2 {
		t.Errorf("node 1 view = %+v", nodes[1])
	}
	links := s.Links()
	if len(links) != 1 || links[0].Frames != 3 || links[0].Bytes != 192 {
		t.Fatalf("links = %+v", links)
	}
}

// refMerge is the map-and-sort merge the linear walk replaced: match
// families by name and samples by signature, add, then sort.
func refMerge(s, o Snapshot) Snapshot {
	sig := func(ls Labels) string { return string(appendSig(nil, ls)) }
	// own copies a sample's distribution so adding into it leaves the
	// input alone; a nil Hist stays nil, the empty distribution.
	own := func(sm Sample) Sample {
		if sm.Hist != nil {
			h := *sm.Hist
			h.Buckets = append([]Bucket(nil), h.Buckets...)
			sm.Hist = &h
		}
		return sm
	}
	out := Snapshot{}
	idx := map[string]int{}
	for _, f := range append(append([]Family(nil), s.Families...), o.Families...) {
		i, ok := idx[f.Name]
		if !ok {
			idx[f.Name] = len(out.Families)
			cp := f
			cp.Samples = nil
			for _, sm := range f.Samples {
				cp.Samples = append(cp.Samples, own(sm))
			}
			out.Families = append(out.Families, cp)
			continue
		}
		dst := &out.Families[i]
	samples:
		for _, sm := range f.Samples {
			for k := range dst.Samples {
				if d := &dst.Samples[k]; sig(d.Labels) == sig(sm.Labels) {
					addSample(d, &sm)
					continue samples
				}
			}
			dst.Samples = append(dst.Samples, own(sm))
		}
		sort.Slice(dst.Samples, func(a, b int) bool { return sig(dst.Samples[a].Labels) < sig(dst.Samples[b].Labels) })
	}
	sort.Slice(out.Families, func(a, b int) bool { return out.Families[a].Name < out.Families[b].Name })
	return out
}

// TestMergeWalkMatchesReference folds snapshots whose families and
// samples only partly overlap — node sets that interleave in signature
// order, families present in some runs only — and checks the in-place
// walk against the map-and-sort reference after every Add.
func TestMergeWalkMatchesReference(t *testing.T) {
	run := func(k int) Snapshot {
		r := NewRegistry()
		r.Counters("ncdsm_ops_total", "ops", []string{"node"}, func(e *Emitter) {
			for n := k; n < 14; n += 1 + k%3 {
				e.Value(float64(n*k)+0.1, e.Itoa(n))
			}
		})
		if k%2 == 0 {
			counter(r, "ncdsm_even_total", []string{"class", "from"}, float64(k), []string{"mesh", "1"}, []string{"express", strconv.Itoa(12 - k)})
		}
		h := NewHistogram([]int64{10, 100})
		h.Observe(int64(k * 37))
		r.Histograms("ncdsm_lat_seconds", "", []string{"node"}, func(e *Emitter) {
			e.Histogram(h, e.Itoa(k%4))
			if k > 2 {
				e.Histogram(h, "12")
			}
		})
		return r.Snapshot()
	}
	var m Merged
	var ref Snapshot
	for k := 1; k <= 7; k++ {
		s := run(k)
		before := s.JSON()
		m.Add(s)
		if k == 1 {
			ref = s.Merge(Snapshot{})
		} else {
			ref = refMerge(ref, s)
		}
		if s.JSON() != before {
			t.Fatalf("Add %d modified its input", k)
		}
		if got, want := m.Snapshot().JSON(), ref.JSON(); got != want {
			t.Fatalf("after Add %d:\n%s\nwant\n%s", k, got, want)
		}
	}
}

// TestMergedSnapshotIsStable: a snapshot Merged handed out never changes
// when more runs are added, and Merge leaves both inputs alone.
func TestMergedSnapshotIsStable(t *testing.T) {
	mk := func(v float64) Snapshot {
		r := NewRegistry()
		counter(r, "ncdsm_ops_total", []string{"node"}, v, []string{"1"}, []string{"2"})
		h := NewHistogram([]int64{10})
		h.Observe(int64(v))
		histogram(r, "ncdsm_lat_seconds", h)
		return r.Snapshot()
	}
	var m Merged
	m.Add(mk(1))
	first := m.Snapshot()
	want := first.JSON()
	m.Add(mk(20))
	if first.JSON() != want {
		t.Error("a later Add changed an earlier merged snapshot")
	}
	if got := m.Snapshot().Total("ncdsm_ops_total"); got != 42 {
		t.Errorf("merged total = %v, want 42", got)
	}
	a, b := mk(3), mk(4)
	ja, jb := a.JSON(), b.JSON()
	a.Merge(b)
	if a.JSON() != ja || b.JSON() != jb {
		t.Error("Merge modified an input")
	}
}

// TestRegistrationRules: families register once with sorted keys,
// collectors report well-formed samples, and a family that reports
// nothing is absent from the snapshot.
func TestRegistrationRules(t *testing.T) {
	panics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	counter(r, "ncdsm_x_total", nil, 1, nil)
	panics("duplicate family", func() { counter(r, "ncdsm_x_total", nil, 1, nil) })
	panics("unsorted keys", func() { counter(NewRegistry(), "ncdsm_y_total", []string{"node", "mc"}, 1) })
	panics("wrong label count", func() {
		r := NewRegistry()
		counter(r, "ncdsm_y_total", []string{"node"}, 1, []string{"1", "2"})
		r.Snapshot()
	})
	panics("duplicate sample", func() {
		r := NewRegistry()
		counter(r, "ncdsm_y_total", []string{"node"}, 1, []string{"1"}, []string{"1"})
		r.Snapshot()
	})
	panics("value into a histogram family", func() {
		r := NewRegistry()
		r.Histograms("ncdsm_y_seconds", "", nil, func(e *Emitter) { e.Value(1) })
		r.Snapshot()
	})
	panics("descending bounds", func() { NewHistogram([]int64{10, 5}) })

	quiet := NewRegistry()
	var active bool
	quiet.Counters("ncdsm_lazy_total", "", nil, func(e *Emitter) {
		if active {
			e.Value(1)
		}
	})
	if n := len(quiet.Snapshot().Families); n != 0 {
		t.Errorf("empty family emitted (%d families)", n)
	}
	active = true
	if quiet.Snapshot().Family("ncdsm_lazy_total") == nil {
		t.Error("family missing once its collector reports")
	}
}

// TestPrometheusEscapesLabels renders the three characters the text
// format escapes in label values.
func TestPrometheusEscapesLabels(t *testing.T) {
	r := NewRegistry()
	counter(r, "ncdsm_x_total", []string{"path"}, 1, []string{"a\\b\"c\nd"})
	want := `ncdsm_x_total{path="a\\b\"c\nd"} 1` + "\n"
	if got := r.Snapshot().Prometheus(); !strings.HasSuffix(got, want) {
		t.Errorf("got %q, want suffix %q", got, want)
	}
}

// TestFamiliesRenderIndependently: a family renders the same whatever
// families precede it, although neighbours whose label keys and values
// repeat in the same order share one sort and one set of label slices.
// The families here repeat, reorder, shorten, extend and depart from
// their predecessor's values, and the last repeats them under another
// key.
func TestFamiliesRenderIndependently(t *testing.T) {
	seqs := [][]int{
		{1, 2, 10, 11, 3},
		{1, 2, 10, 11, 3},
		{3, 11, 10, 2, 1},
		{3, 11, 10},
		{3, 11, 10, 2, 1, 12},
		{3, 11, 7, 2, 1, 12},
		{},
		{3, 11, 7, 2, 1, 12},
		{3, 11, 7, 2, 1, 12},
	}
	register := func(r *Registry, i int) {
		keys := []string{"node"}
		if i == len(seqs)-1 {
			keys = []string{"mc"}
		}
		r.Counters(fmt.Sprintf("ncdsm_f%d_total", i), "", keys, func(e *Emitter) {
			for _, n := range seqs[i] {
				e.Value(float64(n*i), e.Itoa(n))
			}
		})
	}
	r := NewRegistry()
	for i := range seqs {
		register(r, i)
	}
	r.Gauges("ncdsm_g0", "", nil, func(e *Emitter) { e.Value(1) })
	r.Gauges("ncdsm_g1", "", nil, func(e *Emitter) { e.Value(2) })
	shared := r.Snapshot()
	for i := range seqs {
		alone := NewRegistry()
		register(alone, i)
		name := fmt.Sprintf("ncdsm_f%d_total", i)
		got, want := shared.Family(name), alone.Snapshot().Family(name)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: present %v alone, %v shared", name, want != nil, got != nil)
		}
		if got == nil {
			continue
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Errorf("%s renders\n%s\nshared, but alone\n%s", name, gj, wj)
		}
	}
	if v, _ := shared.Value("ncdsm_g1", nil); v != 2 {
		t.Errorf("ncdsm_g1 = %v, want 2", v)
	}
}
