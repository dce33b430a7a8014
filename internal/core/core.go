// Package core assembles the paper's system: the hardware cluster
// (package cluster), one OS agent per node (package osmodel), the
// cluster-wide free-memory directory (package memdir), and the region
// abstraction of Figure 1 — per-node coherency domains whose memory can
// be grown with frames borrowed from other nodes and shrunk back,
// without the coherent domain ever leaving the motherboard.
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/memdir"
	"repro/internal/memmodel"
	"repro/internal/metrics"
	"repro/internal/osmodel"
	"repro/internal/params"
	"repro/internal/rmalloc"
	"repro/internal/sim"
	"repro/internal/vm"
)

// System is one assembled machine.
type System struct {
	p       params.Params
	set     *sim.ShardSet
	cl      *cluster.Cluster
	dir     *memdir.Directory
	agents  map[addr.NodeID]*osmodel.Agent
	regions map[addr.NodeID]*Region
}

// NewSystem builds the cluster hardware and boots one OS per node. The
// simulation runs on p.Shards conservative-PDES shards (default one);
// cluster.New builds the shard set and validates p first.
func NewSystem(p params.Params) (*System, error) {
	cl, err := cluster.New(p)
	if err != nil {
		return nil, err
	}
	topo := cl.Topology()
	s := &System{
		p:       p,
		set:     cl.Set(),
		cl:      cl,
		dir:     memdir.New(func(a, b addr.NodeID) int { return topo.Hops(a, b) }),
		agents:  make(map[addr.NodeID]*osmodel.Agent),
		regions: make(map[addr.NodeID]*Region),
	}
	resolver := func(n addr.NodeID) (*osmodel.Agent, error) {
		a, ok := s.agents[n]
		if !ok {
			return nil, fmt.Errorf("core: no OS agent on node %d", n)
		}
		return a, nil
	}
	for i := 1; i <= topo.Nodes(); i++ {
		a, err := osmodel.NewAgent(addr.NodeID(i), p, s.dir)
		if err != nil {
			return nil, err
		}
		a.SetPeers(resolver)
		s.agents[addr.NodeID(i)] = a
		if p.EnableProtection {
			// Arm the serving RMC with the OS's grant table: remote
			// nodes can then only touch memory reserved for them.
			r, err := cl.RMC(addr.NodeID(i))
			if err != nil {
				return nil, err
			}
			r.SetProtection(a)
		}
	}
	m := s.set.Metrics()
	m.Gauges(metrics.FamPoolFreeBytes, "free bytes in the cluster-wide memory pool", nil,
		func(e *metrics.Emitter) { e.Value(float64(s.dir.TotalFree())) })
	m.Gauges(metrics.FamRegionBorrowed, "bytes this region has borrowed from other nodes", []string{"node"},
		func(e *metrics.Emitter) {
			for n, r := range s.regions {
				e.Value(float64(r.agent.BorrowedBytes()), e.Itoa(int(n)))
			}
		})
	// Directory-transaction families report from the first donor search
	// or grant on, so systems that never borrow memory snapshot exactly
	// as before.
	s.dir.Instrument(m)
	return s, nil
}

// Params returns the system calibration.
func (s *System) Params() params.Params { return s.p }

// Cluster returns the hardware assembly.
func (s *System) Cluster() *cluster.Cluster { return s.cl }

// Set returns the shard set driving the simulation.
func (s *System) Set() *sim.ShardSet { return s.set }

// Run drives the shard set until every shard is drained (or the time
// StopAfter asked for) and returns the final simulated time.
func (s *System) Run() sim.Time { return s.set.Run() }

// Now returns the current simulated time (the furthest shard's clock).
func (s *System) Now() sim.Time { return s.set.Now() }

// StopAfter, called from an event on node n at simulated time t, makes
// Run return at t plus a pad: once every event before that instant has
// run on every shard, and none at or after it. The pad is the mesh
// diameter at the costliest hop, (W−1 + H−1) × (LinkOccupancy + the
// slowest link latency, HopLatency or any -linklat edge). It bounds
// every entry of every partition's lookahead matrix and the
// single-shard window, so no shard can have run past the stop, and the
// run ends at the same instant at every shard count.
func (s *System) StopAfter(n addr.NodeID, t sim.Time) {
	p, ll := s.p, s.p.LinkLat
	hop := max(p.HopLatency, ll.X, ll.Y)
	for _, e := range ll.Edges {
		hop = max(hop, e.Lat)
	}
	pad := sim.Time(p.MeshWidth-1+p.MeshHeight-1) * (p.LinkOccupancy + hop)
	s.set.StopAt(s.cl.MustNode(n).Engine(), t+pad)
}

// Registry returns the metrics registry shared by every shard.
func (s *System) Registry() *metrics.Registry { return s.set.Metrics() }

// Directory returns the free-memory directory.
func (s *System) Directory() *memdir.Directory { return s.dir }

// Agent returns a node's OS agent.
func (s *System) Agent(n addr.NodeID) (*osmodel.Agent, error) {
	a, ok := s.agents[n]
	if !ok {
		return nil, fmt.Errorf("core: no OS agent on node %d", n)
	}
	return a, nil
}

// Region returns (creating on first use) the memory region anchored at a
// node. There is exactly one region per node — "processors in a given
// node will always create a memory region" — and what varies dynamically
// is its size.
func (s *System) Region(n addr.NodeID) (*Region, error) {
	if r, ok := s.regions[n]; ok {
		return r, nil
	}
	agent, err := s.Agent(n)
	if err != nil {
		return nil, err
	}
	node, err := s.cl.Node(n)
	if err != nil {
		return nil, err
	}
	r := &Region{
		sys:        s,
		node:       node,
		agent:      agent,
		as:         vm.NewAddressSpace(),
		writerCore: -1,
	}
	heap, err := rmalloc.NewHeap(r.as, (*regionBacking)(r), 0)
	if err != nil {
		return nil, err
	}
	r.heap = heap
	s.regions[n] = r
	return r, nil
}

// Region is one node's coherency domain plus whatever memory it has
// aggregated: Figure 1's colored areas.
type Region struct {
	sys   *System
	node  *cluster.Node
	agent *osmodel.Agent
	as    *vm.AddressSpace
	heap  *rmalloc.Heap

	// Policy selects donors when the region grows implicitly (heap
	// growth after local memory runs out). Defaults to MostFree.
	Policy memdir.Policy

	// Donors, if non-empty, overrides the directory: implicit growth
	// borrows from these nodes in order (experiments place memory
	// servers deliberately).
	Donors []addr.NodeID

	// mappedBorrows tracks explicitly mapped reservations so Accessor
	// can price each one at its owner's mesh distance.
	mappedBorrows map[addr.Phys]mappedBorrow

	// phase and writerCore enforce the prototype's execution discipline
	// (paper Section IV-B): remote ranges are write-back cached without
	// inter-node coherency, so writes are legal from one bound core only,
	// and parallel phases must be read-only (after a flush).
	phase      Phase
	writerCore int // -1 until the serial phase's core is claimed
}

// mappedBorrow records one explicitly mapped reservation.
type mappedBorrow struct {
	va   vm.Virt
	size uint64
}

// Phase is the region's execution discipline.
type Phase int

// Execution phases of paper Section IV-B.
const (
	// PhaseSerial allows reads and writes from a single bound core — the
	// prototype's default mode for writable remote data.
	PhaseSerial Phase = iota
	// PhaseParallelRead allows reads from any core and no writes; it is
	// entered by flushing the caches, after which multi-threaded
	// execution over remote data is safe without inter-node coherency.
	PhaseParallelRead
)

func (p Phase) String() string {
	switch p {
	case PhaseSerial:
		return "serial"
	case PhaseParallelRead:
		return "parallel-read"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Node returns the region's anchor node identifier.
func (r *Region) Node() addr.NodeID { return r.node.ID() }

// Agent returns the region's OS agent.
func (r *Region) Agent() *osmodel.Agent { return r.agent }

// Grow extends the region by borrowing bytes from a donor chosen by the
// region's policy (or Donors list) and returns the prefixed range. The
// range is reserved and pinned but not yet mapped; Malloc maps on demand,
// MapBorrowed maps explicitly.
func (r *Region) Grow(size uint64) (addr.Range, error) {
	return r.acquireRemote(size)
}

// GrowFrom extends the region from an explicit donor.
func (r *Region) GrowFrom(donor addr.NodeID, size uint64) (addr.Range, error) {
	return r.agent.ReserveRemoteFrom(donor, size)
}

func (r *Region) acquireRemote(size uint64) (addr.Range, error) {
	for _, d := range r.Donors {
		if rng, err := r.agent.ReserveRemoteFrom(d, size); err == nil {
			return rng, nil
		}
	}
	if len(r.Donors) > 0 {
		return addr.Range{}, fmt.Errorf("core: none of the %d preferred donors could grant %d bytes", len(r.Donors), size)
	}
	return r.agent.ReserveRemote(size, r.Policy)
}

// regionBacking adapts the region to rmalloc.Backing: allocate locally
// while the private zone lasts, then borrow remotely — the moment the
// paper's OS "realizes that it is running out of local memory". The OS
// keeps its reserve watermark: a heap chunk that would dip below it goes
// remote instead, so the kernel never donates its own working memory.
type regionBacking Region

func (b *regionBacking) AcquireChunk(size uint64) (addr.Range, error) {
	r := (*Region)(b)
	reserve := r.sys.p.OSReserveBytes
	if free := r.agent.PrivateFree(); free >= size && free-size >= reserve {
		if rng, err := r.agent.AllocPrivate(size); err == nil {
			return rng, nil
		}
		// Contiguity may fail even with enough free bytes; fall through.
	}
	return r.acquireRemote(size)
}

func (b *regionBacking) ReleaseChunk(rng addr.Range) error {
	r := (*Region)(b)
	if rng.Start.IsLocal() {
		return r.agent.FreePrivate(rng)
	}
	return r.agent.ReleaseRemote(rng)
}

// Malloc allocates size bytes in the region's heap, growing the region
// (locally, then remotely) as needed, and returns a virtual pointer.
func (r *Region) Malloc(size uint64) (vm.Virt, error) { return r.heap.Malloc(size) }

// Trim returns heap arenas with no live allocations to their backing —
// freed local memory back to the private zone, freed borrowings back to
// their donors' pools (the hot-remove flow). Returns the bytes released.
func (r *Region) Trim() (uint64, error) { return r.heap.Trim() }

// Free releases a Malloc pointer.
func (r *Region) Free(ptr vm.Virt) error { return r.heap.Free(ptr) }

// MapBorrowed maps an explicitly grown range into the address space and
// returns its virtual base. Used when an experiment wants raw access to
// a reservation without the heap.
func (r *Region) MapBorrowed(rng addr.Range) (vm.Virt, error) {
	base, err := r.as.ReserveVirtual(rng.Size)
	if err != nil {
		return 0, err
	}
	if err := r.as.MapRange(base, rng.Start, vm.PagesFor(rng.Size)); err != nil {
		return 0, err
	}
	if r.mappedBorrows == nil {
		r.mappedBorrows = make(map[addr.Phys]mappedBorrow)
	}
	r.mappedBorrows[rng.Start] = mappedBorrow{va: base, size: rng.Size}
	return base, nil
}

// Translate resolves a virtual address through the process's page
// table; an unmapped address is a page fault.
func (r *Region) Translate(va vm.Virt) (addr.Phys, error) { return r.as.Translate(va) }

// Write stores data at a virtual address (functional path: what the
// bytes are, not when). It spans mappings page by page.
func (r *Region) Write(va vm.Virt, data []byte) error {
	return r.copy(va, data, true)
}

// Read loads len(buf) bytes from a virtual address (functional path).
func (r *Region) Read(va vm.Virt, buf []byte) error {
	return r.copy(va, buf, false)
}

func (r *Region) copy(va vm.Virt, buf []byte, write bool) error {
	for len(buf) > 0 {
		pa, err := r.Translate(va)
		if err != nil {
			return err
		}
		n := params.PageSize - va.Offset()
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		store, local, err := r.resolve(pa)
		if err != nil {
			return err
		}
		if write {
			err = store.WriteAt(local, buf[:n])
		} else {
			err = store.ReadAt(local, buf[:n])
		}
		if err != nil {
			return err
		}
		buf = buf[n:]
		va += vm.Virt(n)
	}
	return nil
}

func (r *Region) resolve(pa addr.Phys) (st interface {
	ReadAt(addr.Phys, []byte) error
	WriteAt(addr.Phys, []byte) error
}, local addr.Phys, err error) {
	canon := pa.Canonical(r.node.ID())
	if canon.IsLocal() {
		return r.node.Store(), canon, nil
	}
	s, err := r.sys.cl.Store(canon.Node())
	if err != nil {
		return nil, 0, err
	}
	return s, canon.Local(), nil
}

// WriteUint64 and ReadUint64 are word-granule functional accessors.
func (r *Region) WriteUint64(va vm.Virt, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return r.Write(va, b[:])
}

// ReadUint64 loads a little-endian word from a virtual address.
func (r *Region) ReadUint64(va vm.Virt) (uint64, error) {
	var b [8]byte
	if err := r.Read(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Accessor builds a macro-layer latency model of the region's virtual
// address space as it is actually laid out: every heap arena and every
// explicitly mapped reservation becomes a stripe priced Local or Remote
// at the owner's true mesh distance. Where the uniform models assume one
// hop for everything, this reflects the placement the reservation
// protocol produced — multi-donor regions get multi-distance pricing.
func (r *Region) Accessor() (*memmodel.Striped, error) {
	topo := r.sys.cl.Topology()
	p := r.sys.p
	var stripes []memmodel.Stripe
	add := func(va vm.Virt, phys addr.Range) {
		var acc memmodel.Accessor
		canon := phys.Start.Canonical(r.node.ID())
		if canon.IsLocal() {
			acc = memmodel.Local{P: p}
		} else {
			acc = memmodel.Remote{P: p, Hops: topo.Hops(r.node.ID(), canon.Node())}
		}
		stripes = append(stripes, memmodel.Stripe{Start: uint64(va), Size: phys.Size, Acc: acc})
	}
	for va, phys := range r.heap.Chunks() {
		add(va, phys)
	}
	for start, mb := range r.mappedBorrows {
		add(mb.va, addr.Range{Start: start, Size: mb.size})
	}
	return memmodel.NewStriped(p, stripes)
}

// CheckAccess reports whether the discipline of the current phase allows
// the access: in the serial phase, one bound core may read and write (the
// first core to access claims the binding); in the parallel-read phase,
// any core may read, nobody may write.
func (r *Region) CheckAccess(core int, write bool) error {
	switch r.phase {
	case PhaseParallelRead:
		if write {
			return fmt.Errorf("core: write by core %d during a parallel-read phase; remote data has no inter-node coherency", core)
		}
		return nil
	default:
		if r.writerCore == -1 {
			r.writerCore = core
		}
		if core != r.writerCore {
			return fmt.Errorf("core: core %d accessed the region during core %d's serial phase; the prototype binds the process to a single core", core, r.writerCore)
		}
		return nil
	}
}

// BeginParallelRead flushes the node's caches (pushing dirty remote lines
// home) and enters the read-only parallel phase, returning the number of
// dirty lines written back. After it, any number of cores may read.
func (r *Region) BeginParallelRead(now sim.Time) int {
	dirty := r.node.FlushCaches(now)
	r.phase = PhaseParallelRead
	return dirty
}

// BeginSerial returns to the single-writer phase, bound to the given
// core.
func (r *Region) BeginSerial(core int) {
	r.phase = PhaseSerial
	r.writerCore = core
}

// Access issues one timed access at a virtual address through the
// node's full memory path (cache, memory map, RMC, fabric); done fires
// at the completion time. This is the paper's fast path: note it begins
// with a translation, not a syscall. The core must exist on the node,
// and the access must satisfy the region's execution discipline
// (CheckAccess).
func (r *Region) Access(now sim.Time, core int, va vm.Virt, write bool, done func(sim.Time)) error {
	if core < 0 || core >= r.sys.p.CoresPerNode {
		return fmt.Errorf("core: core %d outside node %d's %d cores", core, r.node.ID(), r.sys.p.CoresPerNode)
	}
	if err := r.CheckAccess(core, write); err != nil {
		return err
	}
	pa, err := r.Translate(va)
	if err != nil {
		return err
	}
	r.node.Issue(now, core, cpu.Access{Addr: pa, Write: write}, false, done)
	return nil
}
