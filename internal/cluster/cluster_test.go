package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/params"
	"repro/internal/sim"
)

func build(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(params.Default())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildPrototype(t *testing.T) {
	c := build(t)
	if c.Nodes() != 16 {
		t.Fatalf("Nodes = %d", c.Nodes())
	}
	if _, err := c.Node(0); err == nil {
		t.Error("node 0 returned")
	}
	if _, err := c.Node(17); err == nil {
		t.Error("node 17 returned")
	}
	n := c.MustNode(3)
	if n.ID() != 3 {
		t.Errorf("node ID = %d", n.ID())
	}
	// One cache per socket: sockets 0..3 exist, socket 4 does not.
	if _, err := n.Caches().Access(3, 0, false); err != nil {
		t.Errorf("socket 3: %v", err)
	}
	if _, err := n.Caches().Access(4, 0, false); err == nil {
		t.Error("socket 4 accepted on a 4-socket node")
	}
	if _, err := c.RMC(5); err != nil {
		t.Errorf("RMC(5): %v", err)
	}
	if _, err := c.Store(16); err != nil {
		t.Errorf("Store(16): %v", err)
	}
}

func TestInvalidParams(t *testing.T) {
	p := params.Default()
	p.MeshWidth = 0
	if _, err := New(p); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestIsRemote(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	if n.IsRemote(addr.Phys(0x1000)) {
		t.Error("local address reported remote")
	}
	if !n.IsRemote(addr.Phys(0x1000).WithNode(2)) {
		t.Error("prefixed address reported local")
	}
	// Even the loopback alias routes to the RMC: the BARs compare prefix
	// bits, nothing else.
	if !n.IsRemote(addr.Phys(0x1000).WithNode(1)) {
		t.Error("loopback alias reported local")
	}
	// An address no segment claims has no route: a prefix past the
	// 16-node cluster, or an address past a node's installed memory
	// (4 GiB nodes leave the top of each 16 GiB local space unclaimed).
	p := params.Default()
	p.MemPerNode, p.PrivateMemPerNode = 4<<30, 2<<30
	small, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	n = small.MustNode(1)
	unclaimed := []addr.Phys{
		addr.Phys(0x1000).WithNode(17),
		addr.Phys(p.MemPerNode),
		addr.Phys(p.MemPerNode).WithNode(3),
	}
	for _, a := range unclaimed {
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			n.IsRemote(a)
		}()
		if !strings.Contains(msg, "no route") {
			t.Errorf("IsRemote(%v) panicked with %q, want a no-route panic", a, msg)
		}
	}
}

func TestLocalAccessTiming(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	p := c.p
	var first, second sim.Time
	n.Issue(0, 0, cpu.Access{Addr: 0x4000}, false, func(ts sim.Time) { first = ts })
	c.Set().Run()
	// Miss: cache latency + controller occupancy + DRAM latency.
	want := p.L1Latency + p.DRAMOccupancy + p.DRAMLatency
	if first != want {
		t.Errorf("local miss = %d, want %d", first, want)
	}
	// Second access to the same line hits in cache.
	n.Issue(first, 0, cpu.Access{Addr: 0x4008}, false, func(ts sim.Time) { second = ts })
	c.Set().Run()
	if second-first != p.L1Latency {
		t.Errorf("cache hit = %d, want %d", second-first, p.L1Latency)
	}
	if n.LocalOps != 1 {
		t.Errorf("LocalOps = %d, want 1 (hit shouldn't count)", n.LocalOps)
	}
}

func TestRemoteAccessTiming(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	p := c.p
	a := addr.Phys(0x8000).WithNode(2) // 1 hop
	var done sim.Time
	n.Issue(0, 0, cpu.Access{Addr: a}, false, func(ts sim.Time) { done = ts })
	c.Set().Run()
	lo := p.RemoteRoundTrip(1)
	hi := lo + 10*p.LinkOccupancy + p.DRAMOccupancy + p.L1Latency
	if done < lo || done > hi {
		t.Errorf("remote miss = %d, want within [%d, %d]", done, lo, hi)
	}
	if n.RemoteOps != 1 {
		t.Errorf("RemoteOps = %d", n.RemoteOps)
	}

	// Remote line is cached write-back: the second access hits locally.
	var hit sim.Time
	n.Issue(done, 0, cpu.Access{Addr: a + 8}, false, func(ts sim.Time) { hit = ts })
	c.Set().Run()
	if hit-done != p.L1Latency {
		t.Errorf("cached remote hit = %d, want %d", hit-done, p.L1Latency)
	}
	if n.RemoteOps != 1 {
		t.Error("cache hit generated remote traffic")
	}
}

func TestRemoteReadSeesRemoteStore(t *testing.T) {
	c := build(t)
	// Seed node 2's functional memory, then read it (timing path) and
	// check the data arrived via the response payload path by reading the
	// store through resolve (functional equivalence).
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	st, _ := c.Store(2)
	if err := st.WriteAt(0x9000, want); err != nil {
		t.Fatal(err)
	}
	n := c.MustNode(1)
	done := false
	n.Issue(0, 0, cpu.Access{Addr: addr.Phys(0x9000).WithNode(2)}, false, func(sim.Time) { done = true })
	c.Set().Run()
	if !done {
		t.Fatal("remote read did not complete")
	}
	got := make([]byte, 8)
	if err := st.ReadAt(0x9000, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("owner store read %v, want %v", got, want)
		}
	}
	// Loopback addresses live in the node's own store.
	own, _ := c.Store(1)
	if own != n.Store() {
		t.Error("loopback store is not the node's own store")
	}
}

func TestThreadOverCluster(t *testing.T) {
	// End-to-end: a thread on node 1 streams over remote memory on node 2
	// with the window of one; throughput is bounded by the round trip.
	c := build(t)
	p := c.p
	n := c.MustNode(1)
	const count = 64
	accs := make([]cpu.Access, count)
	for i := range accs {
		// Distinct lines: every access misses.
		accs[i] = cpu.Access{Addr: addr.Phys(uint64(i) * 4096).WithNode(2)}
	}
	th, err := cpu.NewThread(cpu.ThreadConfig{
		Name: "t0", Engine: n.Engine(), Memory: n,
		Stream:      cpu.NewSliceStream(accs),
		WindowLocal: p.LocalOutstanding, WindowRemote: p.RemoteOutstanding,
	})
	if err != nil {
		t.Fatal(err)
	}
	th.Start(0)
	c.Set().Run()
	if !th.Done {
		t.Fatal("thread did not finish")
	}
	perAccess := (th.FinishTime - th.StartTime) / count
	rt := p.RemoteRoundTrip(1)
	if perAccess < rt || perAccess > rt+rt/2 {
		t.Errorf("per-access = %d ps, want near round trip %d", perAccess, rt)
	}
}

func TestDirtyRemoteVictimWritesBack(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	srv := c.MustNode(2)
	// Write a remote line (write-allocate, becomes M in cache), then
	// stream enough conflicting lines through the same set to evict it.
	target := addr.Phys(0).WithNode(2)
	n.Issue(0, 0, cpu.Access{Addr: target, Write: true}, false, func(sim.Time) {})
	c.Set().Run()
	servedBefore := srv.RMC().ServedHere

	cfg := n.Caches()
	setSpan := uint64(1024) * cfg.LineSize() // DefaultConfig: 1024 sets
	for i := 1; i <= 9; i++ {                // > 8 ways
		a := addr.Phys(uint64(i) * setSpan).WithNode(2)
		n.Issue(c.Set().Now(), 0, cpu.Access{Addr: a}, false, func(sim.Time) {})
		c.Set().Run()
	}
	if srv.RMC().ServedHere <= servedBefore+9 {
		t.Errorf("no victim writeback reached the server (served %d -> %d)",
			servedBefore, srv.RMC().ServedHere)
	}
}

func TestSocketMapping(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	if n.socketOf(0) != 0 || n.socketOf(3) != 0 {
		t.Error("cores 0-3 should map to socket 0")
	}
	if n.socketOf(4) != 1 || n.socketOf(15) != 3 {
		t.Error("core/socket mapping wrong")
	}
	if n.socketOf(99) != 3 {
		t.Error("out-of-range core should clamp")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		c := build(t)
		n := c.MustNode(1)
		var accs []cpu.Access
		for i := 0; i < 200; i++ {
			accs = append(accs, cpu.Access{Addr: addr.Phys(uint64(i*7919%4096) * 64).WithNode(addr.NodeID(2 + i%3))})
		}
		th, err := cpu.NewThread(cpu.ThreadConfig{
			Engine: n.Engine(), Memory: n, Stream: cpu.NewSliceStream(accs),
			WindowLocal: 8, WindowRemote: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		th.Start(0)
		c.Set().Run()
		return th.FinishTime
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs diverged: %d vs %d", a, b)
	}
}

func TestPrefetchAcceleratesStreams(t *testing.T) {
	run := func(depth int) sim.Time {
		p := params.Default()
		p.PrefetchDepth = depth
		if depth > 0 {
			p.RMCQueueDepth = depth + 1
		}
		c, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		n := c.MustNode(1)
		const lines = 512
		accs := make([]cpu.Access, lines)
		for i := range accs {
			accs[i] = cpu.Access{Addr: addr.Phys(uint64(i) * 64).WithNode(2)}
		}
		th, err := cpu.NewThread(cpu.ThreadConfig{
			Engine: n.Engine(), Memory: n, Stream: cpu.NewSliceStream(accs),
			WindowLocal: p.LocalOutstanding, WindowRemote: p.RemoteOutstanding,
		})
		if err != nil {
			t.Fatal(err)
		}
		th.Start(0)
		c.Set().Run()
		if !th.Done {
			t.Fatal("stream did not finish")
		}
		if depth > 0 && n.Prefetches == 0 {
			t.Error("prefetcher never fired on a sequential stream")
		}
		if depth == 0 && n.Prefetches != 0 {
			t.Error("prefetches issued with depth 0")
		}
		return th.FinishTime - th.StartTime
	}
	off, on := run(0), run(4)
	if on >= off {
		t.Errorf("prefetch did not help: %d vs %d", on, off)
	}
	if on < off/4 {
		t.Errorf("prefetch gain implausibly large: %d vs %d", on, off)
	}
}

func TestPrefetchPreservesRandomAccessTime(t *testing.T) {
	run := func(depth int) sim.Time {
		p := params.Default()
		p.PrefetchDepth = depth
		c, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		n := c.MustNode(1)
		accs := make([]cpu.Access, 256)
		for i := range accs {
			accs[i] = cpu.Access{Addr: addr.Phys(uint64((i*7919)%100000) * 4096).WithNode(2)}
		}
		th, err := cpu.NewThread(cpu.ThreadConfig{
			Engine: n.Engine(), Memory: n, Stream: cpu.NewSliceStream(accs),
			WindowLocal: p.LocalOutstanding, WindowRemote: p.RemoteOutstanding,
		})
		if err != nil {
			t.Fatal(err)
		}
		th.Start(0)
		c.Set().Run()
		if !th.Done {
			t.Fatal("stream did not finish")
		}
		return th.FinishTime - th.StartTime
	}
	if off, on := run(0), run(8); off != on {
		t.Errorf("prefetch changed random-access time: %d vs %d", off, on)
	}
}

func TestFlushCaches(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	for i := 0; i < 32; i++ {
		n.Issue(c.Set().Now(), 0, cpu.Access{Addr: addr.Phys(uint64(i) * 64), Write: true}, false, func(sim.Time) {})
		c.Set().Run()
	}
	if dirty := n.FlushCaches(c.Set().Now()); dirty != 32 {
		t.Errorf("flush wrote back %d lines, want 32", dirty)
	}
	if n.FlushCaches(c.Set().Now()) != 0 {
		t.Error("second flush found dirty lines")
	}
}

func TestHToEClusterEndToEnd(t *testing.T) {
	// The whole machine runs over the switched fabric: constant distance,
	// higher per-line cost, no express links.
	p := params.Default()
	p.Fabric = params.FabricHToE
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MeshFabric(); err == nil {
		t.Error("HToE cluster handed out a mesh fabric")
	}
	n := c.MustNode(1)
	measure := func(dst addr.NodeID) sim.Time {
		start := c.Set().Now()
		var done sim.Time
		n.Issue(start, 0, cpu.Access{Addr: addr.Phys(uint64(dst) * 4096).WithNode(dst)}, false,
			func(ts sim.Time) { done = ts })
		c.Set().Run()
		return done - start
	}
	near, far := measure(2), measure(16)
	if near != far {
		t.Errorf("switched fabric not distance-blind: %d vs %d", near, far)
	}
	if near <= p.RemoteRoundTrip(1) {
		t.Errorf("HToE access (%d) should cost more than a 1-hop mesh trip (%d)", near, p.RemoteRoundTrip(1))
	}
}

func TestMeshFabricAccessor(t *testing.T) {
	c := build(t)
	if _, err := c.MeshFabric(); err != nil {
		t.Errorf("mesh cluster has no mesh fabric: %v", err)
	}
	if c.fabric == nil {
		t.Error("no interconnect")
	}
	n := c.MustNode(2)
	if n.MemMap() == nil || n.Bank() == nil || n.Store() == nil {
		t.Error("node getters broken")
	}
}

func TestLocalDirtyVictimWritesBackToBank(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	// Dirty a local line, then stream conflicting local lines through the
	// same set until it evicts: the victim must cost a bank write.
	n.Issue(0, 0, cpu.Access{Addr: 0, Write: true}, false, func(sim.Time) {})
	c.Set().Run()
	setSpan := uint64(1024) * n.Caches().LineSize()
	for i := 1; i <= 9; i++ {
		n.Issue(c.Set().Now(), 0, cpu.Access{Addr: addr.Phys(uint64(i) * setSpan)}, false, func(sim.Time) {})
		c.Set().Run()
	}
	_, writes := n.Bank().Stats()
	if writes == 0 {
		t.Error("local dirty victim never wrote back to the bank")
	}
}
