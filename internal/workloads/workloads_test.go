package workloads

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/memmodel"
	"repro/internal/params"
)

func TestRandomStreamValidation(t *testing.T) {
	if _, err := RandomStream(1, nil, 10, 0); err == nil {
		t.Error("empty ranges accepted")
	}
	r := []addr.Range{{Start: addr.NodeBase(2), Size: 1 << 20}}
	if _, err := RandomStream(1, r, -1, 0); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := RandomStream(1, r, 10, 1.5); err == nil {
		t.Error("write fraction > 1 accepted")
	}
	if _, err := RandomStream(1, r, 10, math.NaN()); err == nil {
		t.Error("NaN write fraction accepted")
	}
	if _, err := RandomStream(1, []addr.Range{{Start: 0, Size: 8}}, 10, 0); err == nil {
		t.Error("sub-line range accepted")
	}
}

func TestRandomStreamStaysInRanges(t *testing.T) {
	ranges := []addr.Range{
		{Start: addr.NodeBase(2), Size: 1 << 20},
		{Start: addr.NodeBase(5) + 4096, Size: 1 << 16},
	}
	s, err := RandomStream(42, ranges, 2000, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	n, writes := 0, 0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		n++
		if a.Write {
			writes++
		}
		if uint64(a.Addr)%params.CacheLineSize != 0 {
			t.Fatalf("access %v not line-aligned", a.Addr)
		}
		in := false
		for _, r := range ranges {
			if a.Addr >= r.Start && a.Addr < r.End() {
				in = true
			}
		}
		if !in {
			t.Fatalf("access %v outside every range", a.Addr)
		}
	}
	if n != 2000 {
		t.Errorf("stream yielded %d accesses", n)
	}
	if writes == 0 || writes == n {
		t.Errorf("write mix = %d/%d, want a 30%% blend", writes, n)
	}
}

func TestRandomStreamDeterministic(t *testing.T) {
	ranges := []addr.Range{{Start: addr.NodeBase(3), Size: 1 << 20}}
	collect := func(seed int64) []addr.Phys {
		s, err := RandomStream(seed, ranges, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out []addr.Phys
		for {
			a, ok := s.Next()
			if !ok {
				return out
			}
			out = append(out, a.Addr)
		}
	}
	a, b := collect(7), collect(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	c := collect(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// drain reads a stream to its end.
func drain(s cpu.Stream) []cpu.Access {
	var out []cpu.Access
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// streamRanges are one range, and three whose middle one holds 1,000
// lines, no power of two, so that drawing a range (Intn(3)) and a line
// in it (Int63n(1000)) both take math/rand's rejection path.
var streamRanges = [][]addr.Range{
	{{Start: addr.NodeBase(2), Size: 8 << 20}},
	{
		{Start: addr.NodeBase(2), Size: 1 << 20},
		{Start: addr.NodeBase(5) + 4096, Size: 1000 * params.CacheLineSize},
		{Start: addr.NodeBase(9), Size: 1 << 16},
	},
}

// TestShortStreamsMatchLazyDraws: a stream short enough to be drawn when
// it is built reads exactly the first accesses of a same-seed stream
// long enough to be drawn as it is read.
func TestShortStreamsMatchLazyDraws(t *testing.T) {
	for _, ranges := range streamRanges {
		for _, wf := range []float64{0, 0.3, 1} {
			for _, seed := range []int64{0, 1, 42, -7919} {
				lazy, err := RandomStream(seed, ranges, shortStream+50, wf)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := lazy.(cpu.FuncStream); !ok {
					t.Fatalf("a %d-access stream is a %T, want one drawn as it is read", shortStream+50, lazy)
				}
				want := drain(lazy)
				for _, count := range []int{0, 1, 80, shortStream} {
					s, err := RandomStream(seed, ranges, count, wf)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := s.(*cpu.SliceStream); !ok {
						t.Fatalf("a %d-access stream is a %T, want one drawn when built", count, s)
					}
					if got := drain(s); !slices.Equal(got, want[:count]) {
						t.Errorf("%d ranges, write fraction %v, seed %d, count %d: drawn when built\n%v\nwant\n%v",
							len(ranges), wf, seed, count, got, want[:count])
					}
				}
			}
		}
	}
}

// sink keeps what the allocation test builds live.
var sink any

// TestShortStreamAllocatesLessThanAGenerator: once the pool is warm,
// building the longest short stream allocates fewer bytes than the
// generator a lazily drawn stream keeps. Each op is measured alone and
// the fewest bytes count: a collection empties the pool, and under the
// race detector Put drops a share of what it is given.
func TestShortStreamAllocatesLessThanAGenerator(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytesPerOp := func(op func()) uint64 {
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for i := 0; i < 20; i++ {
			runtime.ReadMemStats(&before)
			op()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	gen := bytesPerOp(func() { sink = rand.New(rand.NewSource(1)) })
	stream := bytesPerOp(func() {
		s, err := RandomStream(1, streamRanges[1], shortStream, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		sink = s
	})
	if stream >= gen {
		t.Errorf("a %d-access stream allocates %d B, a generator %d B", shortStream, stream, gen)
	}
}

// TestShortStreamsBuildConcurrently: streams built at once from several
// goroutines, which borrow and reseed the pooled generators together,
// read what a serial build of the same streams reads.
func TestShortStreamsBuildConcurrently(t *testing.T) {
	const streams, workers = 64, 8
	build := func(i int) ([]cpu.Access, error) {
		s, err := RandomStream(int64(i)*7919, streamRanges[i%2], 1+i*shortStream/streams, 0.3)
		if err != nil {
			return nil, err
		}
		return drain(s), nil
	}
	want := make([][]cpu.Access, streams)
	for i := range want {
		var err error
		if want[i], err = build(i); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]cpu.Access, streams)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; i < streams; i += workers {
				acc, err := build(i)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = acc
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("stream %d built concurrently differs from its serial build", i)
		}
	}
}

func TestKernelDeterminism(t *testing.T) {
	p := params.Default()
	for _, k := range ParsecSuite(p) {
		r1 := k.Run(memmodel.Local{P: p}, 11)
		r2 := k.Run(memmodel.Local{P: p}, 11)
		if r1.MemTime != r2.MemTime || r1.Accesses != r2.Accesses {
			t.Errorf("%s: nondeterministic run", k.Name)
		}
		if r1.Accesses != k.Accesses {
			t.Errorf("%s: ran %d accesses, declared %d", k.Name, r1.Accesses, k.Accesses)
		}
		if r1.CompTime != params.Duration(k.Accesses)*k.ComputePerAccess {
			t.Errorf("%s: compute time wrong", k.Name)
		}
		if r1.Total() != r1.MemTime+r1.CompTime {
			t.Errorf("%s: Total inconsistent", k.Name)
		}
	}
}

func TestKernelFootprintDiscipline(t *testing.T) {
	// Every generated address stays within the declared footprint.
	p := params.Default()
	for _, k := range ParsecSuite(p) {
		gen := k.gen(k, 3)
		for i := 0; i < 20000; i++ {
			a, _ := gen()
			if a >= k.Footprint {
				t.Fatalf("%s: address %d beyond footprint %d", k.Name, a, k.Footprint)
			}
		}
	}
}

// TestStreamingKernelsWrapAsModulo pins the streaming kernels' address
// sequences across several passes to the modulo they used to compute
// per access: access i reads (i*stride) mod Footprint.
func TestStreamingKernelsWrapAsModulo(t *testing.T) {
	p := params.Default()
	p.SwapResidentPages = 1 // small footprints: many wraps in few accesses
	for _, tc := range []struct {
		k      Kernel
		stride uint64
		write  func(i uint64) bool
	}{
		{Blackscholes(p), 16, func(i uint64) bool { return (i+1)%8 == 0 }},
		{Streamcluster(p), 8, func(uint64) bool { return false }},
	} {
		gen := tc.k.gen(tc.k, 1)
		n := 3*tc.k.Footprint/tc.stride + 5
		for i := uint64(0); i < n; i++ {
			a, w := gen()
			if want := i * tc.stride % tc.k.Footprint; a != want || w != tc.write(i) {
				t.Fatalf("%s access %d = (%d, %v), want (%d, %v)", tc.k.Name, i, a, w, want, tc.write(i))
			}
		}
	}
}

func TestSuiteShapesUnderConfigs(t *testing.T) {
	// The Figure 11 orderings that must hold per kernel.
	p := params.Default()
	run := func(k Kernel, cfg memmodel.Config) params.Duration {
		base, err := memmodel.Build(cfg, p, 1, p.SwapResidentPages)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := memmodel.NewLineCached(base, p, memmodel.DefaultCacheLines)
		if err != nil {
			t.Fatal(err)
		}
		return k.Run(acc, 5).Total()
	}

	for _, k := range ParsecSuite(p) {
		local := run(k, memmodel.ConfigLocal)
		remote := run(k, memmodel.ConfigRemote)
		rswap := run(k, memmodel.ConfigRemoteSwap)
		if remote < local {
			t.Errorf("%s: remote (%d) beat local (%d)", k.Name, remote, local)
		}
		switch k.Name {
		case "blackscholes", "raytrace":
			lo, hi := 1.5, 8.0
			ratio := float64(rswap) / float64(remote)
			if ratio < lo || ratio > hi {
				t.Errorf("%s: swap/remote = %.2f, want within [%v,%v] (paper: ~2x)", k.Name, ratio, lo, hi)
			}
		case "canneal":
			if float64(rswap)/float64(remote) < 20 {
				t.Errorf("canneal: swap/remote = %.2f, should be prohibitive", float64(rswap)/float64(remote))
			}
			if float64(remote)/float64(local) < 1.5 {
				t.Errorf("canneal: remote/local = %.2f, paper shows a noticeable gap", float64(remote)/float64(local))
			}
		case "streamcluster":
			if float64(rswap)/float64(local) > 1.2 {
				t.Errorf("streamcluster: swap/local = %.2f, should fit locally and tie", float64(rswap)/float64(local))
			}
		}
	}
}

func TestScaleRef(t *testing.T) {
	p := params.Default()
	if got := ScaleRef(p); got != uint64(p.SwapResidentPages)*params.PageSize {
		t.Errorf("ScaleRef = %d", got)
	}
	// Streamcluster fits locally; canneal dwarfs it.
	if Streamcluster(p).Footprint >= ScaleRef(p) {
		t.Error("streamcluster should fit in local memory")
	}
	if Canneal(p).Footprint <= 8*ScaleRef(p) {
		t.Error("canneal should dwarf local memory")
	}
}
