// Benchmarks: one per table/figure of the paper's evaluation (each runs
// the full experiment generator at a reduced scale and reports the
// headline simulated metric alongside host cost), plus micro-benchmarks
// of the library's hot paths.
//
//	go test -bench=. -benchmem
package ncdsm

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/btree"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/db"
	"repro/internal/experiments"
	"repro/internal/hnc"
	"repro/internal/ht"
	"repro/internal/htoe"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/swap"
	"repro/internal/workloads"
)

// benchScale keeps each experiment run in the tens of milliseconds while
// preserving every shape (the shape tests in internal/experiments assert
// them at a larger scale).
const benchScale = 0.005

// benchParallel bounds concurrent sweep points inside each experiment
// (0 = all cores). go test claims the bare -parallel spelling for its
// own test.parallel, so set this one after the -args separator:
//
//	go test -bench=. -args -parallel 1
var benchParallel = flag.Int("parallel", 0, "concurrent sweep points per experiment (0 = all cores, 1 = serial)")

// runExperiment is the shared driver for the per-figure benchmarks.
func runExperiment(b *testing.B, id string, metric func(*stats.Figure) (float64, string)) {
	b.Helper()
	gen, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	o := experiments.DefaultOptions()
	o.Scale = benchScale
	o.Parallel = *benchParallel
	var fig *stats.Figure
	for i := 0; i < b.N; i++ {
		fig, err = gen(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil && fig != nil {
		v, unit := metric(fig)
		b.ReportMetric(v, unit)
	}
}

// lastY returns the final point of a series as the reported metric.
func lastY(series string, unit string) func(*stats.Figure) (float64, string) {
	return func(f *stats.Figure) (float64, string) {
		s := f.FindSeries(series)
		if s == nil || len(s.Points) == 0 {
			return 0, unit
		}
		return s.Points[len(s.Points)-1].Y, unit
	}
}

func BenchmarkTable1_LatencyCharacterization(b *testing.B) {
	runExperiment(b, "table1", func(f *stats.Figure) (float64, string) {
		s := f.FindSeries("measured")
		for _, p := range s.Points {
			if p.Label == "remote access, 1 hop(s) (µs)" {
				return p.Y, "sim-µs/remote-access"
			}
		}
		return 0, "sim-µs/remote-access"
	})
}

func BenchmarkFig6_LatencyVsHops(b *testing.B) {
	runExperiment(b, "fig6", lastY("remote memory (measured)", "sim-µs@6hops"))
}

func BenchmarkFig7_ClientBottleneck(b *testing.B) {
	runExperiment(b, "fig7", lastY("4 servers", "sim-ms@4t-3hops"))
}

func BenchmarkFig8_ServerCongestion(b *testing.B) {
	runExperiment(b, "fig8", lastY("control thread", "sim-ms@6nx4t"))
}

func BenchmarkFig9_BtreeFanout(b *testing.B) {
	runExperiment(b, "fig9", func(f *stats.Figure) (float64, string) {
		s := f.FindSeries("remote swap")
		best := s.Points[0]
		for _, p := range s.Points {
			if p.Y < best.Y {
				best = p
			}
		}
		return best.X, "optimal-fanout"
	})
}

func BenchmarkFig10_BtreeScalability(b *testing.B) {
	runExperiment(b, "fig10", lastY("remote swap", "sim-µs/search@max-keys"))
}

func BenchmarkFig11_Parsec(b *testing.B) {
	runExperiment(b, "fig11", func(f *stats.Figure) (float64, string) {
		var remote, rswap float64
		for _, s := range f.Series {
			for _, p := range s.Points {
				if p.Label == "canneal" {
					switch s.Name {
					case "remote memory":
						remote = p.Y
					case "remote swap":
						rswap = p.Y
					}
				}
			}
		}
		if remote == 0 {
			return 0, "canneal-swap/remote"
		}
		return rswap / remote, "canneal-swap/remote"
	})
}

func BenchmarkEq_AnalyticModels(b *testing.B) {
	runExperiment(b, "eq", nil)
}

func BenchmarkAblation_Coherency(b *testing.B) {
	runExperiment(b, "A", lastY("coherent DSM (directory MSI)", "sim-µs/write@15-sharers"))
}

func BenchmarkAblation_OutstandingWindow(b *testing.B) {
	runExperiment(b, "B", lastY("1 thread, 1 server, 1 hop", "sim-ms@window8"))
}

func BenchmarkAblation_RetryPolicy(b *testing.B) {
	runExperiment(b, "C", lastY("4 servers, 1 hop", "sim-ms@depth8"))
}

// ---- library hot-path micro-benchmarks (host cost per operation) ----

func BenchmarkFunctionalCrossNodeWrite(b *testing.B) {
	sys, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		b.Fatal(err)
	}
	ptr, err := region.GrowFrom(9, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := region.Write(ptr+Pointer(uint64(i*64)%(64<<20-64)), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBtreeSearchRemote(b *testing.B) {
	p := params.Default()
	tr, err := btree.New(168)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, 200000)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	if err := tr.BulkLoad(keys); err != nil {
		b.Fatal(err)
	}
	acc := memmodel.Remote{P: p, Hops: 1}
	rng := rand.New(rand.NewSource(1))
	var bt memmodel.Batcher
	b.ResetTimer()
	var cost params.Duration
	for i := 0; i < b.N; i++ {
		_, c, _ := tr.SearchBatch(uint64(rng.Intn(400000)), acc, &bt)
		cost += c
	}
	b.ReportMetric(float64(cost)/float64(b.N)/1e6, "sim-µs/search")
}

func BenchmarkCacheAccessMESI(b *testing.B) {
	h, err := cache.NewHierarchy(4, cache.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Access(i%4, addr.Phys(uint64(i)*64%(1<<20)), i%5 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageCacheTouch(b *testing.B) {
	c, err := swap.NewPageCache(2048)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(uint64(i*7919)%8192, i%8 == 0)
	}
}

func BenchmarkMallocFree(b *testing.B) {
	sys, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := region.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := region.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrefixRoute(b *testing.B) {
	mm, err := addr.NewMemMap(1, 16, 16<<30)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]addr.Phys, 256)
	for i := range addrs {
		if i%2 == 0 {
			addrs[i] = addr.Phys(uint64(i) << 20)
		} else {
			addrs[i] = addr.Phys(uint64(i) << 16).WithNode(addr.NodeID(i%16 + 1))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mm.Route(addrs[i%len(addrs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelCanneal(b *testing.B) {
	p := params.Default()
	p.SwapResidentPages = 256
	k := workloads.Canneal(p)
	acc := memmodel.Remote{P: p, Hops: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := k.Run(acc, int64(i))
		b.ReportMetric(float64(res.Total())/1e9, "sim-ms/run")
	}
}

func BenchmarkThreadedRandomAccess(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := New(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				region, err := sys.Region(1)
				if err != nil {
					b.Fatal(err)
				}
				core := sys.Core()
				rng, err := region.GrowFrom(2, 64<<20)
				if err != nil {
					b.Fatal(err)
				}
				_ = rng
				agent, err := core.Agent(1)
				if err != nil {
					b.Fatal(err)
				}
				ranges := agent.Borrowed()
				node, err := core.Cluster().Node(1)
				if err != nil {
					b.Fatal(err)
				}
				p := sys.Config()
				for t := 0; t < threads; t++ {
					stream, err := workloads.RandomStream(int64(t+1), ranges, 2000/threads, 0)
					if err != nil {
						b.Fatal(err)
					}
					th, err := cpu.NewThread(cpu.ThreadConfig{
						Engine: node.Engine(), Memory: node, Stream: stream,
						Core: t, WindowLocal: p.LocalOutstanding, WindowRemote: p.RemoteOutstanding,
					})
					if err != nil {
						b.Fatal(err)
					}
					th.Start(0)
				}
				core.Run()
			}
		})
	}
}

func BenchmarkAblation_Prefetch(b *testing.B) {
	runExperiment(b, "D", lastY("sequential stream over remote memory", "sim-µs/line@depth8"))
}

func BenchmarkAblation_ParallelPhase(b *testing.B) {
	runExperiment(b, "E", lastY("read-only phase", "sim-ms@8threads"))
}

func BenchmarkAblation_Fabric(b *testing.B) {
	runExperiment(b, "F", lastY("HT-over-Ethernet (switched)", "sim-µs/access"))
}

func BenchmarkAblation_IndexStructures(b *testing.B) {
	runExperiment(b, "G", lastY("hash index", "sim-µs/lookup@swap"))
}

func BenchmarkHashIndexSearchRemote(b *testing.B) {
	h, err := db.NewHashIndex(200000)
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 200000; k++ {
		h.Insert(k*2, k)
	}
	p := params.Default()
	acc := memmodel.Remote{P: p, Hops: 1}
	rng := rand.New(rand.NewSource(1))
	var bt memmodel.Batcher
	b.ResetTimer()
	var cost params.Duration
	for i := 0; i < b.N; i++ {
		_, _, c, _ := h.SearchBatch(uint64(rng.Intn(400000)), acc, &bt)
		cost += c
	}
	b.ReportMetric(float64(cost)/float64(b.N)/1e6, "sim-µs/lookup")
}

// BenchmarkHnCSealVerify is one request-plus-reply frame round trip per
// op, as an RMC pair runs it: a client among 16 seals a line read in its
// send slot, server node 3 receives and decapsulates it there, seals
// the 64-byte read response back, and the client accepts it — cycling
// the clients the way a shared server RMC hears its requesters.
func BenchmarkHnCSealVerify(b *testing.B) {
	const peers = 16
	server, err := hnc.NewBridge(3)
	if err != nil {
		b.Fatal(err)
	}
	vs, err := hnc.NewVerifier(3)
	if err != nil {
		b.Fatal(err)
	}
	type client struct {
		b   *hnc.Bridge
		v   *hnc.Verifier
		req hnc.Sealed
	}
	clients := make([]client, peers)
	for i := range clients {
		id := addr.NodeID(4 + i)
		c := &clients[i]
		if c.b, err = hnc.NewBridge(id); err != nil {
			b.Fatal(err)
		}
		if c.v, err = hnc.NewVerifier(id); err != nil {
			b.Fatal(err)
		}
	}
	req := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1000).WithNode(3), Count: 64}
	rsp := ht.Packet{Cmd: ht.CmdRdResponse, Addr: 0x1000, Count: 64, Data: make([]byte, 64)}
	var reply hnc.Sealed
	var local ht.Packet
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &clients[i%peers]
		if err := c.b.SealRequest(&c.req, &req); err != nil {
			b.Fatal(err)
		}
		if err := vs.Receive(&c.req, &local); err != nil {
			b.Fatal(err)
		}
		if err := server.SealReply(&reply, c.req.Frame.Src, &rsp); err != nil {
			b.Fatal(err)
		}
		if err := c.v.Accept(&reply); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHToEDelivery(b *testing.B) {
	f, err := htoe.New(16, htoe.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var now Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, _ := f.Deliver(now, 1, addr.NodeID(i%15+2), 72)
		now = at
	}
}

func BenchmarkDbGet(b *testing.B) {
	sys, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	region, err := sys.Core().Region(1)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.Create(region, "bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 10000; k++ {
		if err := tbl.Put(k, []byte("0123456789abcdef0123456789abcdef")); err != nil {
			b.Fatal(err)
		}
	}
	acc := memmodel.Remote{P: params.Default(), Hops: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, _, err := tbl.Get(uint64(i)%10000, acc); err != nil || !found {
			b.Fatal(err)
		}
	}
}
