package metrics

import (
	"encoding/json"
	"strings"
	"testing"
)

// counter registers a sampled counter fixed at v.
func counter(r *Registry, name string, ls Labels, v uint64) {
	r.CounterFunc(name, "", ls, func() uint64 { return v })
}

func TestCounterGaugeSnapshot(t *testing.T) {
	r := NewRegistry()
	var tally uint64 = 7
	r.CounterFunc("ncdsm_test_ops_total", "ops", L("node", "0"), func() uint64 { return tally })
	r.CounterFunc("ncdsm_test_ops_total", "ops", L("node", "1"), func() uint64 { return 5 })
	level := 2.5
	r.GaugeFunc("ncdsm_test_level", "level", nil, func() float64 { return level })

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
	tally, level = 100, -1
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
	h := r.Histogram("ncdsm_test_latency_seconds", "lat", nil, []int64{10, 20, 50})
	for _, v := range []int64{5, 10, 11, 60, -3} {
		h.Observe(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d want 5", h.N())
	}
	if h.Sum() != 5+10+11+60+0 {
		t.Fatalf("Sum = %d want 86", h.Sum())
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

func TestSnapshotOrderingDeterministic(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		for _, i := range order {
			switch i {
			case 0:
				counter(r, "ncdsm_b_total", L("node", "2"), 2)
			case 1:
				counter(r, "ncdsm_a_total", L("zone", "x", "node", "1"), 1)
			case 2:
				counter(r, "ncdsm_b_total", L("node", "0"), 3)
			}
		}
		return r.Snapshot().Prometheus()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	if a != b {
		t.Errorf("registration order leaked into rendering:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `ncdsm_a_total{node="1",zone="x"} 1`) {
		t.Errorf("labels not sorted by key:\n%s", a)
	}
}

func TestMergeFoldsInOrder(t *testing.T) {
	mk := func(n uint64, lat int64) Snapshot {
		r := NewRegistry()
		counter(r, "ncdsm_ops_total", L("node", "0"), n)
		r.Histogram("ncdsm_lat_seconds", "", nil, []int64{10, 100}).Observe(lat)
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
	counter(r, "ncdsm_other_total", nil, 9)
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
	r.CounterFunc("ncdsm_x_total", "things that happened", L("node", "0"), func() uint64 { return 42 })
	r.Histogram("ncdsm_y_seconds", "a latency", L("node", "0"), []int64{1_000_000}).Observe(500_000)
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
	counter(r, "ncdsm_x_total", L("node", "3"), 7)
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
	counter(r, FamCacheHits, L("node", "1"), 10)
	counter(r, FamCacheMisses, L("node", "1"), 2)
	counter(r, FamCacheHits, L("node", "0"), 5)
	counter(r, FamMeshLinkFrames, L("from", "0", "to", "1", "class", "mesh"), 3)
	counter(r, FamMeshLinkBytes, L("from", "0", "to", "1", "class", "mesh"), 192)
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
