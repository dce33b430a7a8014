package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/stats"
	"repro/internal/swap"
)

// testOptions is small enough for CI but large enough that every shape
// assertion below is stable.
func testOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.02
	return o
}

func series(t *testing.T, fig *stats.Figure, name string) *stats.Series {
	t.Helper()
	s := fig.FindSeries(name)
	if s == nil {
		t.Fatalf("figure %s has no series %q", fig.ID, name)
	}
	return s
}

func ys(s *stats.Series) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Y
	}
	return out
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 18 {
		t.Fatalf("registry has %d entries", len(reg))
	}
	for _, e := range reg {
		if _, err := Lookup(e.ID); err != nil {
			t.Errorf("Lookup(%q): %v", e.ID, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTable1(t *testing.T) {
	fig, err := Table1(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	meas := series(t, fig, "measured")
	byLabel := map[string]float64{}
	for _, p := range meas.Points {
		byLabel[p.Label] = p.Y
	}
	local := byLabel["local access (µs)"]
	r1 := byLabel["remote access, 1 hop(s) (µs)"]
	r6 := byLabel["remote access, 6 hop(s) (µs)"]
	if !(local < r1 && r1 < r6) {
		t.Errorf("latency ordering violated: local %v, 1-hop %v, 6-hop %v", local, r1, r6)
	}
	// The remote/local gap is the paper's motivation: around 10x here,
	// far below Violin's OS-mediated 3 µs.
	if r1/local < 3 || r1/local > 40 {
		t.Errorf("remote/local ratio %v outside the plausible band", r1/local)
	}
	if r1 > 3.0 {
		t.Errorf("1-hop remote access %v µs should beat Violin's 3 µs", r1)
	}
	// The unloaded path has no tail: the slowest access is the mean
	// trip, give or take DRAM row state.
	for _, h := range []int{1, 6} {
		mean := byLabel[fmt.Sprintf("remote access, %d hop(s) (µs)", h)]
		tail := byLabel[fmt.Sprintf("remote access max, %d hop(s) (µs)", h)]
		if tail < mean || tail > 1.02*mean {
			t.Errorf("%d-hop max %v µs outside [mean, mean+2%%] of mean %v µs", h, tail, mean)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	fig, err := Fig6(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	remote := ys(series(t, fig, "remote memory (measured)"))
	local := ys(series(t, fig, "local memory"))
	if len(remote) != 6 {
		t.Fatalf("expected 6 hop points, got %d", len(remote))
	}
	for i := 1; i < len(remote); i++ {
		if remote[i] <= remote[i-1] {
			t.Errorf("latency not increasing at hop %d: %v", i+1, remote)
		}
	}
	// Roughly linear: per-hop increments within 2x of each other.
	first, last := remote[1]-remote[0], remote[5]-remote[4]
	if last > 2*first || first > 2*last {
		t.Errorf("hop increments not linear: %v vs %v", first, last)
	}
	if remote[0] < 5*local[0] {
		t.Errorf("1-hop remote (%v) should be far above local (%v)", remote[0], local[0])
	}
}

func TestFig7Shape(t *testing.T) {
	fig, err := Fig7(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	one := ys(series(t, fig, "1 server"))
	four := ys(series(t, fig, "4 servers"))
	t1, t2, t4 := one[0], one[1], one[2]
	// Two threads halve the time (within 10%).
	if ratio := t1 / t2; ratio < 1.8 || ratio > 2.2 {
		t.Errorf("2-thread speedup = %.2f, want ~2", ratio)
	}
	// Four threads do NOT halve again: the client RMC saturates.
	if t4 < 0.7*t2 {
		t.Errorf("4 threads too fast (%.3f vs %.3f): no saturation", t4, t2)
	}
	// Four servers at one hop don't beat one server (the client is the
	// bottleneck, within 5%).
	if four[0] < 0.95*t4 || four[0] > 1.05*t4 {
		t.Errorf("4 servers (%.3f) should match 1 server (%.3f) at 4 threads", four[0], t4)
	}
	// The paper's inversion: farther servers are (slightly) faster.
	h1, h2, h3 := four[0], four[1], four[2]
	if !(h3 < h2 && h2 < h1) {
		t.Errorf("no inversion: 1 hop %.3f, 2 hops %.3f, 3 hops %.3f", h1, h2, h3)
	}
	// But only slightly: within 40%.
	if h3 < 0.6*h1 {
		t.Errorf("inversion too strong: %.3f vs %.3f", h3, h1)
	}
}

func TestFig8Shape(t *testing.T) {
	fig, err := Fig8(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := ys(series(t, fig, "control thread"))
	if len(ctrl) != 9 {
		t.Fatalf("expected 9 load points, got %d", len(ctrl))
	}
	// Flat through 3 nodes x 4 threads (points 0..5 within 10%).
	for i := 1; i <= 5; i++ {
		if ctrl[i] > 1.1*ctrl[0] {
			t.Errorf("control degraded too early at point %d: %.3f vs %.3f", i, ctrl[i], ctrl[0])
		}
	}
	// Then rising: the last point well above the flat region, and the
	// tail monotone.
	if ctrl[8] < 1.5*ctrl[0] {
		t.Errorf("server congestion never materialized: %.3f vs %.3f", ctrl[8], ctrl[0])
	}
	if !(ctrl[6] <= ctrl[7] && ctrl[7] <= ctrl[8]) {
		t.Errorf("tail not monotone: %v", ctrl[6:])
	}
}

func TestFig9Shape(t *testing.T) {
	fig, err := Fig9(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	sw := series(t, fig, "remote swap")
	rm := series(t, fig, "remote memory")
	// Find the swap minimum.
	minI := 0
	for i, p := range sw.Points {
		if p.Y < sw.Points[minI].Y {
			minI = i
		}
	}
	bestFanout := sw.Points[minI].X
	if bestFanout < 96 || bestFanout > 256 {
		t.Errorf("swap optimum at fanout %v, want near 168 (one-page nodes)", bestFanout)
	}
	// U-shape: endpoints well above the minimum.
	first, last, minY := sw.Points[0].Y, sw.Points[len(sw.Points)-1].Y, sw.Points[minI].Y
	if first < 1.5*minY || last < 1.5*minY {
		t.Errorf("no U-shape: ends %v/%v vs min %v", first, last, minY)
	}
	// Remote memory is comparatively flat: max/min < 2.
	rmin, rmax := rm.Points[0].Y, rm.Points[0].Y
	for _, p := range rm.Points {
		if p.Y < rmin {
			rmin = p.Y
		}
		if p.Y > rmax {
			rmax = p.Y
		}
	}
	if rmax/rmin > 2 {
		t.Errorf("remote memory series not flat: %v..%v", rmin, rmax)
	}
	// And far below swap at the optimum.
	if rm.Points[minI].Y > minY/3 {
		t.Errorf("remote memory (%v) should dominate swap's best (%v)", rm.Points[minI].Y, minY)
	}
}

func TestFig10Shape(t *testing.T) {
	fig, err := Fig10(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rm := ys(series(t, fig, "remote memory"))
	sw := ys(series(t, fig, "remote swap"))
	n := len(rm)
	// Remote memory grows gently: largest/smallest tree within ~3x.
	if rm[n-1] > 3*rm[0] {
		t.Errorf("remote memory grew %vx across the sweep, want gentle growth", rm[n-1]/rm[0])
	}
	// Remote swap explodes once the tree outgrows residency: the last
	// point is at least 20x its first and at least 5x remote memory.
	if sw[n-1] < 20*sw[0] {
		t.Errorf("swap did not blow up: %v -> %v", sw[0], sw[n-1])
	}
	if sw[n-1] < 5*rm[n-1] {
		t.Errorf("swap (%v) should be far above remote memory (%v) at scale", sw[n-1], rm[n-1])
	}
	// Before the blow-up, swap can win (high locality in a small tree):
	// the curves cross, as the crossover analysis predicts.
	if sw[0] > rm[0] {
		t.Logf("note: swap did not start below remote memory (%v vs %v)", sw[0], rm[0])
	}
}

func TestFig11Shape(t *testing.T) {
	fig, err := Fig11(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	get := func(seriesName, bench string) float64 {
		s := series(t, fig, seriesName)
		for _, p := range s.Points {
			if p.Label == bench {
				return p.Y
			}
		}
		t.Fatalf("series %q has no point %q", seriesName, bench)
		return 0
	}
	for _, bench := range []string{"blackscholes", "raytrace", "canneal", "streamcluster"} {
		local := get("local memory", bench)
		remote := get("remote memory", bench)
		rswap := get("remote swap", bench)
		if remote < local {
			t.Errorf("%s: remote (%v) beat local (%v)", bench, remote, local)
		}
		switch bench {
		case "blackscholes", "raytrace":
			if r := rswap / remote; r < 1.5 || r > 10 {
				t.Errorf("%s: swap/remote = %.2f, want a clear but bounded penalty (~2x in the paper)", bench, r)
			}
		case "canneal":
			if rswap/remote < 20 {
				t.Errorf("canneal: swap/remote = %.1f, should be prohibitive", rswap/remote)
			}
			if remote/local < 1.5 || remote/local > 20 {
				t.Errorf("canneal: remote/local = %.2f, want noticeable but feasible", remote/local)
			}
		case "streamcluster":
			if rswap/local > 1.25 {
				t.Errorf("streamcluster: swap/local = %.2f, should converge", rswap/local)
			}
		}
	}
}

func TestEquationsAgree(t *testing.T) {
	fig, err := Equations(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	eq1 := ys(series(t, fig, "Eq(1) remote swap"))
	m1 := ys(series(t, fig, "measured swap"))
	eq2 := ys(series(t, fig, "Eq(2) remote memory"))
	m2 := ys(series(t, fig, "measured remote"))
	for i := range eq1 {
		if diff := abs(eq1[i]-m1[i]) / eq1[i]; diff > 0.01 {
			t.Errorf("Eq1 vs measured at point %d: %v vs %v", i, eq1[i], m1[i])
		}
		if diff := abs(eq2[i]-m2[i]) / eq2[i]; diff > 0.01 {
			t.Errorf("Eq2 vs measured at point %d: %v vs %v", i, eq2[i], m2[i])
		}
	}
	if len(fig.Notes) == 0 || !strings.Contains(fig.Notes[0], "crossover") {
		t.Error("missing crossover note")
	}
}

func TestAblationCoherencyShape(t *testing.T) {
	fig, err := AblationCoherency(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	coh := ys(series(t, fig, "coherent DSM (directory MSI)"))
	rmc := ys(series(t, fig, "non-coherent RMC region"))
	for i := 1; i < len(coh); i++ {
		if coh[i] <= coh[i-1] {
			t.Errorf("coherent write cost not growing at point %d: %v", i, coh)
		}
	}
	// The RMC side stays within a narrow band while the coherent side
	// at least quadruples.
	if rmc[len(rmc)-1] > 2.5*rmc[0] {
		t.Errorf("RMC series not flat: %v", rmc)
	}
	if coh[len(coh)-1] < 4*coh[0] {
		t.Errorf("coherent series did not grow enough: %v", coh)
	}
	// At scale, coherency costs dominate the flat RMC write.
	if coh[len(coh)-1] < 3*rmc[len(rmc)-1] {
		t.Errorf("coherent (%v) should far exceed RMC (%v) at 15 sharers", coh[len(coh)-1], rmc[len(rmc)-1])
	}
}

func TestAblationWindowShape(t *testing.T) {
	fig, err := AblationWindow(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := ys(series(t, fig, "1 thread, 1 server, 1 hop"))
	// Monotone non-increasing, with a big first step (window 1 -> 2).
	for i := 1; i < len(s); i++ {
		if s[i] > 1.02*s[i-1] {
			t.Errorf("widening the window slowed things down at point %d: %v", i, s)
		}
	}
	if s[0] < 1.5*s[1] {
		t.Errorf("window 1 -> 2 should nearly halve time: %v", s)
	}
}

func TestAblationRetryShape(t *testing.T) {
	fig, err := AblationRetry(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	near := ys(series(t, fig, "4 servers, 1 hop"))
	far := ys(series(t, fig, "4 servers, 3 hops"))
	// Depth 1 shows the inversion...
	if near[0] <= far[0] {
		t.Errorf("no inversion at depth 1: near %v vs far %v", near[0], far[0])
	}
	// ...and a deep queue removes it (near <= far within 2%).
	last := len(near) - 1
	if near[last] > 1.02*far[last] {
		t.Errorf("inversion persists at depth 8: near %v vs far %v", near[last], far[last])
	}
}

func TestAblationPrefetchShape(t *testing.T) {
	fig, err := AblationPrefetch(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq := ys(series(t, fig, "sequential stream over remote memory"))
	rnd := ys(series(t, fig, "random accesses (unaffected)"))
	local := ys(series(t, fig, "local memory reference"))
	// Sequential: monotone non-increasing in depth, with a real win.
	for i := 1; i < len(seq); i++ {
		if seq[i] > 1.02*seq[i-1] {
			t.Errorf("deeper prefetch slowed the stream at point %d: %v", i, seq)
		}
	}
	if seq[len(seq)-1] > 0.7*seq[0] {
		t.Errorf("prefetch gained only %v -> %v", seq[0], seq[len(seq)-1])
	}
	// It approaches but cannot beat the client-RMC occupancy floor.
	floor := float64(testOptions().P.RMCClientOccupancy) / 1e6
	if seq[len(seq)-1] < floor {
		t.Errorf("stream (%v µs/line) beat the RMC occupancy floor (%v)", seq[len(seq)-1], floor)
	}
	if seq[len(seq)-1] < local[0] {
		t.Errorf("prefetched remote (%v) beat local (%v)", seq[len(seq)-1], local[0])
	}
	// Random traffic is untouched (within 2%).
	for i := 1; i < len(rnd); i++ {
		if rnd[i] < 0.98*rnd[0] || rnd[i] > 1.02*rnd[0] {
			t.Errorf("prefetch depth changed random-access time: %v", rnd)
		}
	}
}

func TestAblationParallelPhaseShape(t *testing.T) {
	fig, err := AblationParallelPhase(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	read := ys(series(t, fig, "read-only phase"))
	// 1 -> 2 threads scales nearly ideally; beyond that the client RMC
	// binds (no further halving).
	if r := read[0] / read[1]; r < 1.8 || r > 2.2 {
		t.Errorf("2-thread read phase speedup = %.2f", r)
	}
	if read[3] < 0.5*read[1] {
		t.Errorf("8 threads kept scaling past the RMC bound: %v", read)
	}
	// And crucially: it ran at all — multi-threaded reads over remote
	// data after a flush are legal, unlike multi-threaded writes.
	for i, v := range read {
		if v <= 0 {
			t.Errorf("point %d nonpositive: %v", i, v)
		}
	}
}

func TestScaledFloor(t *testing.T) {
	o := Options{Scale: 0.0001}
	if got := o.scaled(1000, 50); got != 50 {
		t.Errorf("scaled floor = %d", got)
	}
	o.Scale = 2
	if got := o.scaled(1000, 50); got != 2000 {
		t.Errorf("scaled = %d", got)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestAblationFabricShape(t *testing.T) {
	fig, err := AblationFabric(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	mesh := ys(series(t, fig, "2D mesh (prototype)"))
	eth := ys(series(t, fig, "HT-over-Ethernet (switched)"))
	// Mesh grows with distance; HToE is flat.
	for i := 1; i < len(mesh); i++ {
		if mesh[i] <= mesh[i-1] {
			t.Errorf("mesh latency not growing: %v", mesh)
		}
		if eth[i] != eth[0] {
			t.Errorf("switched fabric not distance-blind: %v", eth)
		}
	}
	// On a 16-node cluster the mesh wins everywhere — the prototype's
	// fabric choice — but the switched constant is within one order of
	// magnitude (it is a viable fabric, as the paper suggests).
	for i := range mesh {
		if mesh[i] >= eth[i] {
			t.Errorf("mesh lost at %d hops: %v vs %v", i+1, mesh[i], eth[i])
		}
	}
	if eth[0] > 10*mesh[0] {
		t.Errorf("HToE constant %v implausibly high vs mesh %v", eth[0], mesh[0])
	}
}

func TestApplyParam(t *testing.T) {
	p := DefaultOptions().P
	if err := ApplyParam(&p, "RMCClientOccupancy", "200ns"); err != nil {
		t.Fatal(err)
	}
	if p.RMCClientOccupancy != 200*1000 {
		t.Errorf("occupancy = %d ps", p.RMCClientOccupancy)
	}
	if err := ApplyParam(&p, "RMCQueueDepth", "4"); err != nil {
		t.Fatal(err)
	}
	if p.RMCQueueDepth != 4 {
		t.Errorf("queue depth = %d", p.RMCQueueDepth)
	}
	if err := ApplyParam(&p, "HopLatency", "1.5us"); err != nil {
		t.Fatal(err)
	}
	if p.HopLatency != 1500*1000 {
		t.Errorf("hop = %d ps", p.HopLatency)
	}
	if err := ApplyParam(&p, "Nope", "1"); err == nil {
		t.Error("unknown knob accepted")
	}
	if err := ApplyParam(&p, "RMCQueueDepth", "xyz"); err == nil {
		t.Error("bad int accepted")
	}
	if err := ApplyParam(&p, "DRAMLatency", "fast"); err == nil {
		t.Error("bad duration accepted")
	}
	// Every advertised knob must actually apply.
	o := DefaultOptions()
	for _, k := range sweepKnobs(&o.P) {
		q := DefaultOptions().P
		v := "7"
		if k.dur != nil {
			v = "7us"
		}
		if err := ApplyParam(&q, k.name, v); err != nil {
			t.Errorf("advertised knob %s rejected: %v", k.name, err)
		}
	}
}

// TestSweptCalibrationValidated: a -sweep point applies its value with
// ApplyParam and runs the generator Lookup returns. A value the
// calibration refuses must come back as that error from every
// experiment: unchecked, a zero hop latency panics in engine
// construction on the micro figures and runs the macro ones silently.
func TestSweptCalibrationValidated(t *testing.T) {
	o := testOptions()
	o.Parallel = 1
	if err := ApplyParam(&o.P, "HopLatency", "0"); err != nil {
		t.Fatal(err)
	}
	for _, e := range Registry() {
		gen, err := Lookup(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen(o); err == nil || !strings.Contains(err.Error(), "latencies must be positive") {
			t.Errorf("%s with HopLatency=0: err = %v, want the calibration error", e.ID, err)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		o := testOptions()
		o.Scale = scale
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "Scale must be positive and finite") {
			t.Errorf("Scale %v: err = %v", scale, err)
		}
	}
	// A count past MaxInt64 would convert to MinInt64 on amd64 and
	// silently run every point at its floor size.
	for _, scale := range []float64{1e12, 1e20} {
		o := testOptions()
		o.Scale = scale
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "overflows the scaled count") {
			t.Errorf("Scale %v: err = %v", scale, err)
		}
	}
	// 10M keys × 1e11 = 1e18 still fits an int, but its 8e18-byte key
	// slice is past what one allocation can take: drawKeys would panic.
	o := testOptions()
	o.Scale = 1e11
	var kd *KeyDrawError
	if err := o.Validate(); !errors.As(err, &kd) || kd.Scale != 1e11 || kd.Bytes != 8e18 {
		t.Errorf("Scale 1e11: err = %v, want a *KeyDrawError for 8e18 bytes", err)
	}
	o = testOptions()
	o.Scale = 1e6 // 10^13 keys, 80 TB: allocatable, if not on this host
	if err := o.Validate(); err != nil {
		t.Errorf("Scale 1e6 refused: %v", err)
	}
	o = testOptions()
	o.Parallel = -1
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "Parallel must be 0 (all cores) or a worker count (got -1)") {
		t.Errorf("Parallel -1: err = %v", err)
	}
	for _, parallel := range []int{0, 1, 8} {
		o := testOptions()
		o.Parallel = parallel
		if err := o.Validate(); err != nil {
			t.Errorf("Parallel %d refused: %v", parallel, err)
		}
	}
}

func TestParseSweep(t *testing.T) {
	key, vals, err := ParseSweep("HopLatency=100ns,200ns,300ns")
	if err != nil || key != "HopLatency" || len(vals) != 3 || vals[1] != "200ns" {
		t.Errorf("ParseSweep = %q, %v, %v", key, vals, err)
	}
	for _, bad := range []string{"", "NoEquals", "=v", "K=", "K=a,,b"} {
		if _, _, err := ParseSweep(bad); err == nil {
			t.Errorf("ParseSweep(%q) accepted", bad)
		}
	}
}

func TestAblationIndexesShape(t *testing.T) {
	fig, err := AblationIndexes(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	bt := ys(series(t, fig, "b-tree (fanout 168)"))
	h := ys(series(t, fig, "hash index"))
	// Remote memory (point 1): the hash index wins by ~an order of
	// magnitude — footnote 3's claim.
	if bt[1]/h[1] < 5 {
		t.Errorf("hash advantage in remote memory = %.1fx, want >= 5x", bt[1]/h[1])
	}
	// Remote swap (point 2): the structures converge within 2x.
	if r := bt[2] / h[2]; r < 0.5 || r > 2 {
		t.Errorf("swap ratio = %.2f, structures should converge", r)
	}
	// Both obey local < remote < swap.
	for _, s := range [][]float64{bt, h} {
		if !(s[0] < s[1] && s[1] < s[2]) {
			t.Errorf("config ordering violated: %v", s)
		}
	}
}

// TestDrawKeysSorted: the bitset read in word order is the draw's key
// set, sorted: the same distinct keys a map-deduped draw from the same
// stream accepts, in ascending order.
func TestDrawKeysSorted(t *testing.T) {
	o := testOptions()
	for _, n := range []int{0, 1, 63, 64, 65, 5000} {
		rng := rand.New(rand.NewSource(o.Seed))
		seen := map[uint64]bool{}
		var want []uint64
		for len(want) < n {
			if k := uint64(rng.Int63n(int64(n) * 4)); !seen[k] {
				seen[k] = true
				want = append(want, k)
			}
		}
		slices.Sort(want)
		if got := drawKeys(o, n); !slices.Equal(got, want) {
			t.Errorf("n=%d: drawKeys is not the sorted draw", n)
		}
	}
}

// TestSearchSweepOneWalk: a sweep that prices each lookup under several
// configurations from one walk gives every configuration the mean it
// gets from a sweep of its own, a stateful swap accessor included, and
// counts each lookup's accesses once.
func TestSearchSweepOneWalk(t *testing.T) {
	o := testOptions()
	tr, err := buildTree(o, 16, 5000)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeKeys(o, 20000, 3000)
	configs := func() []memmodel.Accessor {
		sw, err := memmodel.NewSwap(o.P, swap.RemoteDevice{P: o.P, Hops: 1}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return []memmodel.Accessor{sw, memmodel.Remote{P: o.P, Hops: 1}, memmodel.Local{P: o.P}}
	}
	joint, accesses := searchSweep(probes, treeSearch(tr), configs()...)
	for i, acc := range configs() {
		solo, n := searchSweep(probes, treeSearch(tr), acc)
		if solo[0] != joint[i] || n != accesses {
			t.Errorf("%s: %v µs and %d accesses alone, %v µs and %d in one walk", acc.Name(), solo[0], n, joint[i], accesses)
		}
	}
}

func TestBulkScanShape(t *testing.T) {
	fig, err := BulkScan(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	cr := ys(series(t, fig, "pointer chase, remote"))
	br := ys(series(t, fig, "bulk scan, remote"))
	cl := ys(series(t, fig, "pointer chase, local"))
	bl := ys(series(t, fig, "bulk scan, local"))
	// The acceptance bar: at 4 KiB (point 0), one remote burst is
	// measurably cheaper than 64 dependent single-line accesses.
	if br[0]*4 >= cr[0] {
		t.Errorf("4 KiB remote: bulk %v µs vs chase %v µs; want at least 4x cheaper", br[0], cr[0])
	}
	// Bulk collapses the remote/local ratio.
	if (br[0]/bl[0])*2 >= cr[0]/cl[0] {
		t.Errorf("remote/local ratio: bulk %.1fx vs chase %.1fx; bursts should narrow the gap",
			br[0]/bl[0], cr[0]/cl[0])
	}
	// Every shape grows with transfer size, and bulk stays under the
	// chase at every point.
	for i := 1; i < len(cr); i++ {
		if !(cr[i] > cr[i-1] && br[i] > br[i-1]) {
			t.Errorf("point %d: scan times not monotone in size", i)
		}
		if br[i] >= cr[i] {
			t.Errorf("point %d: remote bulk %v µs not under chase %v µs", i, br[i], cr[i])
		}
	}
	if len(fig.Notes) < 2 {
		t.Error("figure is missing its ratio notes")
	}
}
