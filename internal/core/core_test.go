package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/memdir"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/vm"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(params.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSystemAssembly(t *testing.T) {
	s := newSystem(t)
	if s.Cluster().Nodes() != 16 {
		t.Fatalf("nodes = %d", s.Cluster().Nodes())
	}
	if s.Directory().TotalFree() != params.Default().PoolSize() {
		t.Errorf("pool = %d", s.Directory().TotalFree())
	}
	if _, err := s.Agent(17); err == nil {
		t.Error("agent 17 returned")
	}
	r1, err := s.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	r1again, err := s.Region(1)
	if err != nil || r1again != r1 {
		t.Error("Region not idempotent per node")
	}
	if _, err := s.Region(0); err == nil {
		t.Error("region on node 0 created")
	}
}

func TestGrowShrink(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(3)
	rng, err := r.GrowFrom(7, 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Node() != 7 || rng.Size != 2<<30 {
		t.Errorf("grow = %v", rng)
	}
	if err := r.Agent().ReleaseRemote(rng); err != nil {
		t.Fatal(err)
	}
	if r.Agent().BorrowedBytes() != 0 {
		t.Error("release left borrowed bytes")
	}
}

func TestGrowWithDonorList(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(1)
	r.Donors = []addr.NodeID{13, 14}
	rng, err := r.Grow(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Node() != 13 {
		t.Errorf("grow used donor %d, want 13", rng.Node())
	}
	// Drain 13 and check fall-through to 14.
	p := params.Default()
	if _, err := r.GrowFrom(13, p.PooledMemPerNode()-(1<<30)); err != nil {
		t.Fatal(err)
	}
	rng2, err := r.Grow(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if rng2.Node() != 14 {
		t.Errorf("fallback donor = %d, want 14", rng2.Node())
	}
	// Exhaust both preferred donors entirely: explicit error.
	if _, err := r.GrowFrom(14, p.PooledMemPerNode()-(1<<30)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Grow(1 << 30); err == nil {
		t.Error("grow succeeded with drained preferred donors")
	}
}

func TestMallocSpillsToRemote(t *testing.T) {
	// With a tiny private zone, the heap must transparently spill to
	// remote memory, exactly like the interposed malloc of Section IV-B.
	p := params.Default()
	p.MemPerNode = 1 << 30
	p.PrivateMemPerNode = 128 << 20
	p.OSReserveBytes = 16 << 20
	s, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.Region(1)
	r.Policy = memdir.Nearest

	var sawRemote bool
	for i := 0; i < 8; i++ {
		ptr, err := r.Malloc(100 << 20)
		if err != nil {
			t.Fatalf("malloc %d: %v", i, err)
		}
		pa, err := r.Translate(ptr)
		if err != nil {
			t.Fatal(err)
		}
		if !pa.IsLocal() {
			sawRemote = true
		}
	}
	if !sawRemote {
		t.Error("800 MB of allocations never spilled beyond a 128 MB private zone")
	}
	if r.Agent().BorrowedBytes() == 0 {
		t.Error("no memory borrowed")
	}
}

func TestFunctionalReadWriteAcrossNodes(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(1)
	rng, err := r.GrowFrom(9, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	va, err := r.MapBorrowed(rng)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("written on node 1, stored on node 9")
	if err := r.Write(va+12345, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := r.Read(va+12345, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read back %q", got)
	}
	// The bytes physically live on node 9.
	st, err := s.Cluster().Store(9)
	if err != nil {
		t.Fatal(err)
	}
	direct := make([]byte, len(msg))
	if err := st.ReadAt(rng.Start.Local()+12345, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, msg) {
		t.Error("data not physically on the donor node")
	}
}

func TestWordHelpers(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(2)
	ptr, err := r.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteUint64(ptr, 0xFEEDFACE12345678); err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadUint64(ptr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xFEEDFACE12345678 {
		t.Errorf("word = %#x", v)
	}
}

func TestCrossPageFunctionalCopyProperty(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(1)
	rng, err := r.GrowFrom(5, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	va, err := r.MapBorrowed(rng)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := vm.Virt(uint64(off) % (16<<20 - uint64(len(data))))
		if err := r.Write(va+o, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := r.Read(va+o, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTranslateUnmappedFails(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(1)
	if _, err := r.Translate(0xdeadbeef000); err == nil {
		t.Error("unmapped translation succeeded")
	}
}

func TestTimedAccessThroughRegion(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(1)
	rng, err := r.GrowFrom(2, 1<<20) // node 2: one hop
	if err != nil {
		t.Fatal(err)
	}
	va, err := r.MapBorrowed(rng)
	if err != nil {
		t.Fatal(err)
	}
	var done sim.Time
	if err := r.Access(0, 0, va, false, func(ts sim.Time) { done = ts }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	p := s.Params()
	if done < p.RemoteRoundTrip(1) {
		t.Errorf("remote access completed in %d, below the physical round trip", done)
	}
	if err := r.Access(0, 0, 0xbad000000, false, func(sim.Time) {}); err == nil {
		t.Error("access to unmapped address accepted")
	}
}

func TestRegionThreadEndToEnd(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(1)
	rng, err := r.GrowFrom(2, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	va, err := r.MapBorrowed(rng)
	if err != nil {
		t.Fatal(err)
	}
	// The thread issues the physical addresses the region's page table
	// maps its virtual pages to, as every experiment's threads do.
	var accs []cpu.Access
	for i := 0; i < 32; i++ {
		pa, err := r.Translate(va + vm.Virt(i*params.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, cpu.Access{Addr: pa})
	}
	th, err := cpu.NewThread(cpu.ThreadConfig{
		Name: "worker", Engine: r.node.Engine(), Memory: r.node,
		Stream:      cpu.NewSliceStream(accs),
		WindowLocal: s.p.LocalOutstanding, WindowRemote: s.p.RemoteOutstanding,
	})
	if err != nil {
		t.Fatal(err)
	}
	th.Start(0)
	s.Run()
	if !th.Done || th.Issued != 32 {
		t.Fatalf("thread issued %d", th.Issued)
	}
	rt := s.Params().RemoteRoundTrip(1)
	if mean := th.Latency.Mean(); mean < float64(rt)*0.8 {
		t.Errorf("mean latency %v below round trip %d", mean, rt)
	}
}

func TestGrowShrinkConservation(t *testing.T) {
	// Pool capacity is conserved under arbitrary grow/release cycles
	// spread over many donors.
	s := newSystem(t)
	r, _ := s.Region(1)
	total := s.Directory().TotalFree()
	var live []addr.Range
	for i := 0; i < 40; i++ {
		donor := addr.NodeID(2 + i%15)
		rng, err := r.GrowFrom(donor, uint64(1+i%7)<<20)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, rng)
		if i%3 == 0 {
			victim := live[0]
			live = live[1:]
			if err := r.Agent().ReleaseRemote(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	var borrowed uint64
	for _, rng := range live {
		borrowed += rng.Size
	}
	if got := s.Directory().TotalFree(); got != total-borrowed {
		t.Errorf("pool = %d, want %d", got, total-borrowed)
	}
	for _, rng := range live {
		if err := r.Agent().ReleaseRemote(rng); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Directory().TotalFree(); got != total {
		t.Errorf("pool not restored: %d vs %d", got, total)
	}
}

func TestPhaseDiscipline(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(1)
	rng, err := r.GrowFrom(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	va, err := r.MapBorrowed(rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.phase != PhaseSerial {
		t.Fatalf("initial phase = %v", r.phase)
	}
	noop := func(sim.Time) {}

	// Serial phase: core 0 claims the binding; core 1 is rejected.
	if err := r.Access(s.Now(), 0, va, true, noop); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := r.Access(s.Now(), 1, va, false, noop); err == nil {
		t.Error("second core accessed during a serial phase")
	}

	// Parallel-read phase: everyone reads, nobody writes.
	dirty := r.BeginParallelRead(s.Now())
	if dirty == 0 {
		t.Error("flush found no dirty lines after a write")
	}
	if r.phase != PhaseParallelRead {
		t.Fatalf("phase = %v", r.phase)
	}
	for coreID := 0; coreID < 4; coreID++ {
		if err := r.Access(s.Now(), coreID, va, false, noop); err != nil {
			t.Errorf("core %d read rejected in parallel phase: %v", coreID, err)
		}
	}
	s.Run()
	if err := r.Access(s.Now(), 0, va, true, noop); err == nil {
		t.Error("write accepted during a parallel-read phase")
	}

	// Back to serial, rebound to core 3.
	r.BeginSerial(3)
	if err := r.Access(s.Now(), 3, va, true, noop); err != nil {
		t.Errorf("bound core rejected: %v", err)
	}
	if err := r.Access(s.Now(), 0, va, true, noop); err == nil {
		t.Error("unbound core wrote in the new serial phase")
	}
	s.Run()
	if PhaseSerial.String() == "" || PhaseParallelRead.String() == "" || Phase(9).String() == "" {
		t.Error("phase names empty")
	}
}

func TestOSReserveWatermark(t *testing.T) {
	p := params.Default()
	p.MemPerNode = 1 << 30
	p.PrivateMemPerNode = 512 << 20
	p.OSReserveBytes = 256 << 20
	s, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.Region(1)
	// The first 256 MB fit above the watermark and stay local...
	ptr, err := r.Malloc(200 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if pa, _ := r.Translate(ptr); !pa.IsLocal() {
		t.Error("allocation above the watermark went remote")
	}
	// ...but the next chunk would dip below the reserve and must spill,
	// leaving the OS its 256 MB.
	ptr2, err := r.Malloc(200 << 20)
	if err != nil {
		t.Fatal(err)
	}
	pa2, _ := r.Translate(ptr2)
	if pa2.IsLocal() {
		t.Error("allocation below the watermark stayed local")
	}
	if free := r.Agent().PrivateFree(); free < p.OSReserveBytes {
		t.Errorf("OS left with %d bytes, reserve is %d", free, p.OSReserveBytes)
	}
}

func TestRegionAccessor(t *testing.T) {
	s := newSystem(t)
	r, _ := s.Region(1)
	// A local heap chunk plus two borrows at different distances.
	if _, err := r.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	near, err := r.GrowFrom(2, 1<<20) // 1 hop
	if err != nil {
		t.Fatal(err)
	}
	vaNear, err := r.MapBorrowed(near)
	if err != nil {
		t.Fatal(err)
	}
	far, err := r.GrowFrom(16, 1<<20) // 6 hops
	if err != nil {
		t.Fatal(err)
	}
	vaFar, err := r.MapBorrowed(far)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := r.Accessor()
	if err != nil {
		t.Fatal(err)
	}
	p := s.Params()
	heapPtr, _ := r.Malloc(64) // inside the local arena
	if got := acc.Access(uint64(heapPtr), false); got != p.DRAMLatency {
		t.Errorf("local arena priced %d", got)
	}
	if got := acc.Access(uint64(vaNear), false); got != p.RemoteRoundTrip(1) {
		t.Errorf("1-hop borrow priced %d, want %d", got, p.RemoteRoundTrip(1))
	}
	if got := acc.Access(uint64(vaFar), false); got != p.RemoteRoundTrip(6) {
		t.Errorf("6-hop borrow priced %d, want %d", got, p.RemoteRoundTrip(6))
	}
	if acc.Unmapped != 0 {
		t.Errorf("mapped accesses counted as unmapped: %d", acc.Unmapped)
	}
}
