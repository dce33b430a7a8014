// Package integration runs full-system scenarios that cross package
// boundaries: micro-vs-macro layer agreement, end-to-end data flow
// through every component, failure injection, and whole-cluster
// conservation properties. It has no non-test code — the system under
// test is the rest of the repository.
package integration

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ht"
	"repro/internal/memdir"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/rmc"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func newSystem(t *testing.T) *core.System {
	t.Helper()
	s, err := core.NewSystem(params.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMicroMacroAgreement: the discrete-event simulator and the
// O(1) macro model must agree on the mean latency of an uncontended
// single-threaded random remote stream — the regime both claim to
// cover. Tolerance is the link-occupancy and DRAM-occupancy terms the
// macro model folds away.
func TestMicroMacroAgreement(t *testing.T) {
	p := params.Default()
	for _, hops := range []int{1, 3, 6} {
		// Micro: one thread, one server at the given distance.
		sys := newSystem(t)
		topo := sys.Cluster().Topology()
		var server addr.NodeID
		for _, cand := range topo.AtDistance(1, hops) {
			server = cand
			break
		}
		if server == 0 {
			t.Fatalf("no server at %d hops", hops)
		}
		region, err := sys.Region(1)
		if err != nil {
			t.Fatal(err)
		}
		rng, err := region.GrowFrom(server, 32<<20)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := workloads.RandomStream(1, []addr.Range{rng}, 3000, 0)
		if err != nil {
			t.Fatal(err)
		}
		node, err := sys.Cluster().Node(1)
		if err != nil {
			t.Fatal(err)
		}
		th, err := cpu.NewThread(cpu.ThreadConfig{
			Engine: node.Engine(), Memory: node, Stream: stream,
			WindowLocal: p.LocalOutstanding, WindowRemote: p.RemoteOutstanding,
		})
		if err != nil {
			t.Fatal(err)
		}
		th.Start(0)
		sys.Run()
		micro := th.Latency.Mean()

		// Macro: Equation (2) at the same distance.
		macro := float64(memmodel.Remote{P: p, Hops: hops}.Access(0, false))

		if diff := math.Abs(micro-macro) / macro; diff > 0.15 {
			t.Errorf("hops=%d: micro %.0f ps vs macro %.0f ps (%.0f%% apart)",
				hops, micro, macro, diff*100)
		}
		if micro < macro {
			t.Errorf("hops=%d: micro (%.0f) below the queue-free analytic bound (%.0f)", hops, micro, macro)
		}
	}
}

// TestEndToEndDataPath: data written through one region is visible to a
// different node reading the same physical memory through its own RMC —
// the shared pool is one pool. The read is a one-line burst: the bulk
// plane is the RMC path that carries bytes.
func TestEndToEndDataPath(t *testing.T) {
	sys := newSystem(t)
	writerRegion, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := writerRegion.GrowFrom(7, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	va, err := writerRegion.MapBorrowed(rng)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("one pool, no copies, no coherency")
	if err := writerRegion.Write(va, secret); err != nil {
		t.Fatal(err)
	}

	// Node 4 reads node 7's physical memory directly through its RMC.
	reader, err := sys.Cluster().RMC(4)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, params.CacheLineSize)
	var doneErr error
	if err := reader.RequestBulk(sys.Now(), rmc.BulkRequest{
		Kind:  rmc.BulkRead,
		Spans: []rmc.Span{{Start: rng.Start, Lines: 1}},
		Data:  got,
		Done:  func(_ sim.Time, err error) { doneErr = err },
	}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if doneErr != nil {
		t.Fatal(doneErr)
	}
	if !bytes.Equal(got[:len(secret)], secret) {
		t.Errorf("node 4 read %q through its RMC", got[:len(secret)])
	}
}

// TestPoolExhaustionFailurePath: when the cluster pool drains, malloc
// fails with a meaningful error, already-allocated data stays intact,
// and releasing memory restores service.
func TestPoolExhaustionFailurePath(t *testing.T) {
	p := params.Default()
	p.MeshWidth, p.MeshHeight = 2, 2
	p.MemPerNode = 256 << 20
	p.PrivateMemPerNode = 128 << 20
	p.OSReserveBytes = 16 << 20
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}

	// Drain everything: 128 MB private + 4 × 128 MB pooled.
	canary, err := region.Malloc(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := region.WriteUint64(canary, 0xCAFED00D); err != nil {
		t.Fatal(err)
	}
	var allocs []vm.Virt
	for {
		ptr, err := region.Malloc(32 << 20)
		if err != nil {
			break // exhausted, as expected
		}
		allocs = append(allocs, ptr)
	}
	if len(allocs) == 0 {
		t.Fatal("never exhausted the cluster")
	}
	if _, err := region.Malloc(32 << 20); err == nil {
		t.Fatal("allocation from a drained pool succeeded")
	}
	// The canary survived the failure path.
	v, err := region.ReadUint64(canary)
	if err != nil || v != 0xCAFED00D {
		t.Errorf("canary = %#x, %v", v, err)
	}
	// Freeing restores service via heap reuse.
	if err := region.Free(allocs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := region.Malloc(16 << 20); err != nil {
		t.Errorf("allocation after free failed: %v", err)
	}
}

// TestReservationDenialRollsBack: a reservation that the directory
// cannot account for must roll the donor grant back (no leaked pins).
func TestReservationDenialRollsBack(t *testing.T) {
	sys := newSystem(t)
	agent, err := sys.Agent(1)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := sys.Agent(2)
	if err != nil {
		t.Fatal(err)
	}
	// Ask for more than any node pools.
	if _, err := agent.ReserveRemote(9<<30, memdir.MostFree); err == nil {
		t.Fatal("impossible reservation succeeded")
	}
	if donor.GrantedBytes() != 0 {
		t.Error("failed reservation leaked a grant")
	}
	if agent.BorrowedBytes() != 0 {
		t.Error("failed reservation recorded a borrow")
	}
}

// TestFullClusterAggregation: one region aggregates the entire 128 GB
// pool minus its own contribution, touches memory on every donor, and
// verifies the data physically lands on 15 distinct nodes.
func TestFullClusterAggregation(t *testing.T) {
	sys := newSystem(t)
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Params()
	touched := map[addr.NodeID]bool{}
	const window = 4 << 20 // map a small window per donor; mapping 8 GB of PTEs per node is pointless for the check
	for donor := addr.NodeID(2); int(donor) <= p.Nodes(); donor++ {
		if _, err := region.GrowFrom(donor, p.PooledMemPerNode()-window); err != nil {
			t.Fatalf("donor %d bulk grow: %v", donor, err)
		}
		rng, err := region.GrowFrom(donor, window)
		if err != nil {
			t.Fatalf("donor %d: %v", donor, err)
		}
		va, err := region.MapBorrowed(rng)
		if err != nil {
			t.Fatal(err)
		}
		tag := []byte(fmt.Sprintf("donor-%02d", donor))
		if err := region.Write(va+777, tag); err != nil {
			t.Fatal(err)
		}
		st, err := sys.Cluster().Store(donor)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(tag))
		if err := st.ReadAt(rng.Start.Local()+777, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tag) {
			t.Errorf("donor %d: stored %q", donor, got)
		}
		touched[donor] = true
	}
	if len(touched) != 15 {
		t.Errorf("aggregated from %d donors", len(touched))
	}
	want := p.PrivateMemPerNode + 15*p.PooledMemPerNode()
	if got := region.Agent().EffectiveMemory(); got != want {
		t.Errorf("effective memory = %d GB, want %d GB", got>>30, want>>30)
	}
	if sys.Directory().TotalFree() != p.PooledMemPerNode() {
		t.Errorf("pool should hold only node 1's own contribution, has %d", sys.Directory().TotalFree())
	}
}

// TestConcurrentRegionsIsolation: two regions on different nodes use
// disjoint physical memory even when borrowing from the same donor, and
// each sees only its own data.
func TestConcurrentRegionsIsolation(t *testing.T) {
	sys := newSystem(t)
	rA, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	rB, err := sys.Region(3)
	if err != nil {
		t.Fatal(err)
	}
	rngA, err := rA.GrowFrom(8, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	rngB, err := rB.GrowFrom(8, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rngA.Overlaps(rngB) {
		t.Fatalf("donor handed out overlapping grants: %v and %v", rngA, rngB)
	}
	vaA, err := rA.MapBorrowed(rngA)
	if err != nil {
		t.Fatal(err)
	}
	vaB, err := rB.MapBorrowed(rngB)
	if err != nil {
		t.Fatal(err)
	}
	if err := rA.Write(vaA, []byte("region A data")); err != nil {
		t.Fatal(err)
	}
	if err := rB.Write(vaB, []byte("region B data")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 13)
	if err := rA.Read(vaA, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "region A data" {
		t.Errorf("region A sees %q", got)
	}
	if err := rB.Read(vaB, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "region B data" {
		t.Errorf("region B sees %q", got)
	}
}

// TestDeterministicWholeSystem: the complete stack (reservation, malloc,
// threads, RMC, fabric, prefetcher) is bit-deterministic across runs.
func TestDeterministicWholeSystem(t *testing.T) {
	run := func() sim.Time {
		p := params.Default()
		p.PrefetchDepth = 2
		p.RMCQueueDepth = 3
		sys, err := core.NewSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		region, err := sys.Region(6)
		if err != nil {
			t.Fatal(err)
		}
		var ranges []addr.Range
		for _, donor := range []addr.NodeID{2, 7, 10} {
			rng, err := region.GrowFrom(donor, 8<<20)
			if err != nil {
				t.Fatal(err)
			}
			ranges = append(ranges, rng)
		}
		node, err := sys.Cluster().Node(6)
		if err != nil {
			t.Fatal(err)
		}
		var end sim.Time
		for ti := 0; ti < 3; ti++ {
			stream, err := workloads.RandomStream(int64(ti), ranges, 500, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			th, err := cpu.NewThread(cpu.ThreadConfig{
				Engine: node.Engine(), Memory: node, Stream: stream,
				Core: ti, WindowLocal: p.LocalOutstanding, WindowRemote: p.RemoteOutstanding,
				OnDone: func(_ *cpu.Thread, ts sim.Time) {
					if ts > end {
						end = ts
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			th.Start(0)
		}
		sys.Run()
		return end
	}
	if a, b := run(), run(); a != b {
		t.Errorf("whole-system runs diverged: %d vs %d", a, b)
	}
}

// TestProtectionEndToEnd: with protection armed, a node can only reach
// memory the reservation protocol granted to it; the earlier
// open-cluster behavior (any node reads any pool frame) is gone.
func TestProtectionEndToEnd(t *testing.T) {
	p := params.Default()
	p.EnableProtection = true
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := region.GrowFrom(7, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	va, err := region.MapBorrowed(rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := region.Write(va, []byte("grant-scoped")); err != nil {
		t.Fatal(err)
	}

	read := func(from addr.NodeID) ht.Command {
		r, err := sys.Cluster().RMC(from)
		if err != nil {
			t.Fatal(err)
		}
		var cmd ht.Command
		req := ht.Packet{Cmd: ht.CmdRdSized, Addr: rng.Start, Count: 64}
		if err := r.Request(sys.Now(), req, false, func(_ sim.Time, rsp ht.Packet, _ error) {
			cmd = rsp.Cmd
		}); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		return cmd
	}
	if got := read(1); got != ht.CmdRdResponse {
		t.Errorf("grantee read = %v", got)
	}
	if got := read(4); got != ht.CmdTgtAbort {
		t.Errorf("stranger read = %v, want TgtAbort", got)
	}
	// Releasing the grant revokes access for everyone.
	if err := region.Agent().ReleaseRemote(rng); err != nil {
		t.Fatal(err)
	}
	if got := read(1); got != ht.CmdTgtAbort {
		t.Errorf("read after release = %v, want TgtAbort", got)
	}
}

// TestAllFeaturesTogether: protection + prefetching + deeper RMC queue +
// the phase discipline, in one cluster — the feature-interaction
// scenario. A stream that runs off the end of its grant must be cut off
// by protection without corrupting anything, and the prefetcher must not
// install refused lines.
func TestAllFeaturesTogether(t *testing.T) {
	p := params.Default()
	p.EnableProtection = true
	p.PrefetchDepth = 4
	p.RMCQueueDepth = 5
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := region.GrowFrom(2, 1<<20) // a small grant the stream will overrun
	if err != nil {
		t.Fatal(err)
	}
	va, err := region.MapBorrowed(rng)
	if err != nil {
		t.Fatal(err)
	}

	// Serial write phase inside the grant.
	if err := region.Write(va, []byte("inside the grant")); err != nil {
		t.Fatal(err)
	}
	// Stream sequentially right up to the end of the grant: the
	// prefetcher will ask for lines past it and must be refused.
	node, err := sys.Cluster().Node(1)
	if err != nil {
		t.Fatal(err)
	}
	const lines = 64
	start := rng.Start + addr.Phys(rng.Size) - lines*params.CacheLineSize
	for i := 0; i < lines; i++ {
		a := start + addr.Phys(i*params.CacheLineSize)
		if err := region.Access(sys.Now(), 0, va+vm.Virt(rng.Size)-lines*params.CacheLineSize+vm.Virt(i*params.CacheLineSize), false, func(sim.Time) {}); err != nil {
			t.Fatal(err)
		}
		_ = a
		sys.Run()
	}
	srv, err := sys.Cluster().RMC(2)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Aborted == 0 {
		t.Error("the prefetcher never hit the protection boundary")
	}
	// Nothing past the grant is cached on node 1.
	past := rng.Start + addr.Phys(rng.Size)
	if node.Caches().Present(past) {
		t.Error("a refused prefetch installed a line past the grant")
	}
	// Data inside the grant is intact.
	buf := make([]byte, 16)
	if err := region.Read(va, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "inside the grant" {
		t.Errorf("grant data corrupted: %q", buf)
	}
}

// TestWholeClusterConcurrentRegions: all 16 nodes run workloads over
// borrowed memory at once — Figure 1's many-regions world under load.
// Everyone finishes, and no node starves (bounded spread).
func TestWholeClusterConcurrentRegions(t *testing.T) {
	sys := newSystem(t)
	p := sys.Params()
	var threads []*cpu.Thread
	for id := addr.NodeID(1); int(id) <= p.Nodes(); id++ {
		region, err := sys.Region(id)
		if err != nil {
			t.Fatal(err)
		}
		donor := id%addr.NodeID(p.Nodes()) + 1 // neighbor by id, never self
		rng, err := region.GrowFrom(donor, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := workloads.RandomStream(int64(id), []addr.Range{rng}, 800, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		node, err := sys.Cluster().Node(id)
		if err != nil {
			t.Fatal(err)
		}
		th, err := cpu.NewThread(cpu.ThreadConfig{
			Name: fmt.Sprintf("region-%d", id), Engine: node.Engine(), Memory: node,
			Stream: stream, WindowLocal: p.LocalOutstanding, WindowRemote: p.RemoteOutstanding,
		})
		if err != nil {
			t.Fatal(err)
		}
		th.Start(0)
		threads = append(threads, th)
	}
	sys.Run()
	var minT, maxT sim.Time
	for i, th := range threads {
		if !th.Done {
			t.Fatalf("%s did not finish", th.Name)
		}
		e := th.FinishTime - th.StartTime
		if i == 0 || e < minT {
			minT = e
		}
		if e > maxT {
			maxT = e
		}
	}
	// Donor distances range from 1 hop (node 1 -> 2) to 6 (node 16 -> 1),
	// so the spread should track Figure 6's latency ratio (~2.6x at 6
	// hops) and no more — distance, not starvation.
	if float64(maxT)/float64(minT) > 3.0 {
		t.Errorf("region spread %d..%d ps too wide", minT, maxT)
	}
	if float64(maxT)/float64(minT) < 1.2 {
		t.Errorf("spread implausibly flat (%d..%d); distance should show", minT, maxT)
	}
}

// TestSoak is a longer deterministic stress: five epochs of mixed work —
// grow, malloc/free churn, timed multi-thread traffic, flush, trim —
// across several regions, with conservation checked after every epoch.
// Skipped under -short.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	p := params.Default()
	p.PrefetchDepth = 2
	p.RMCQueueDepth = 3
	p.EnableProtection = true
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	poolAtStart := sys.Directory().TotalFree()

	for epoch := 0; epoch < 5; epoch++ {
		for _, id := range []addr.NodeID{1, 6, 11} {
			region, err := sys.Region(id)
			if err != nil {
				t.Fatal(err)
			}
			// Churn the heap.
			var ptrs []vm.Virt
			for i := 0; i < 20; i++ {
				ptr, err := region.Malloc(uint64(1+i%5) << 20)
				if err != nil {
					t.Fatalf("epoch %d node %d malloc: %v", epoch, id, err)
				}
				if err := region.WriteUint64(ptr, uint64(epoch)<<32|uint64(i)); err != nil {
					t.Fatal(err)
				}
				ptrs = append(ptrs, ptr)
			}
			// Timed traffic over a fresh borrow.
			donor := id%addr.NodeID(p.Nodes()) + 1
			rng, err := region.GrowFrom(donor, 4<<20)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := workloads.RandomStream(int64(epoch*100)+int64(id), []addr.Range{rng}, 300, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			node, err := sys.Cluster().Node(id)
			if err != nil {
				t.Fatal(err)
			}
			th, err := cpu.NewThread(cpu.ThreadConfig{
				Name: fmt.Sprintf("soak-%d-%d", epoch, id), Engine: node.Engine(), Memory: node,
				Stream: stream, WindowLocal: p.LocalOutstanding, WindowRemote: p.RemoteOutstanding,
			})
			if err != nil {
				t.Fatal(err)
			}
			th.Start(sys.Now())
			sys.Run()
			if !th.Done {
				t.Fatalf("epoch %d node %d thread stuck", epoch, id)
			}
			// Verify the heap data survived the traffic, then release
			// everything and trim.
			for i, ptr := range ptrs {
				v, err := region.ReadUint64(ptr)
				if err != nil || v != uint64(epoch)<<32|uint64(i) {
					t.Fatalf("epoch %d node %d data corrupted: %x, %v", epoch, id, v, err)
				}
				if err := region.Free(ptr); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := region.Trim(); err != nil {
				t.Fatal(err)
			}
			// The traffic range was used by physical address (never
			// mapped), so it goes straight back to its donor.
			if err := region.Agent().ReleaseRemote(rng); err != nil {
				t.Fatal(err)
			}
		}
		if got := sys.Directory().TotalFree(); got != poolAtStart {
			t.Fatalf("epoch %d leaked pool memory: %d vs %d", epoch, got, poolAtStart)
		}
	}
}

// TestHToESystemFunctional: the full software stack (reservation,
// malloc, functional reads/writes, timed threads) works unchanged over
// the switched fabric — the interconnect is genuinely pluggable.
func TestHToESystemFunctional(t *testing.T) {
	p := params.Default()
	p.Fabric = params.FabricHToE
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := region.Malloc(12 << 30) // spills remotely over HToE
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("over ethernet")
	if err := region.Write(ptr+9<<30, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := region.Read(ptr+9<<30, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read back %q", got)
	}
	var done sim.Time
	if err := region.Access(sys.Now(), 0, ptr+9<<30, false, func(ts sim.Time) { done = ts }); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if done == 0 {
		t.Error("timed access never completed over HToE")
	}
}
