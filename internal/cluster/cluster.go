// Package cluster assembles the hardware of the prototype: N nodes on a
// 2D mesh, each with a cache hierarchy, socket-interleaved memory
// controllers, a sparse functional store, and an RMC bridging the node
// onto the HNC-HT fabric. A Node implements cpu.MemorySystem, so threads
// issue plain loads and stores and the BAR comparison decides whether
// they go to a local controller or out through the RMC — exactly the
// forwarding path of paper Section III-B.
package cluster

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/ht"
	"repro/internal/htoe"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/prefetch"
	"repro/internal/rmc"
	"repro/internal/sim"
)

// Cluster is the assembled machine.
type Cluster struct {
	p       params.Params
	set     *sim.ShardSet
	topo    mesh.Topology
	part    mesh.Partition
	fabric  rmc.Fabric
	meshFab *mesh.Fabric // non-nil only for the mesh interconnect
	inj     *faults.Injector
	exSet   *rmc.ExchangeSet
	nodes   []*Node
}

// New builds a cluster from the parameter set on a fresh shard set of
// max(p.Shards, 1) engines (Set). The set's uniform lookahead window is
// the minimum single-link traversal latency — HopLatency, unless a
// -linklat table names a faster edge — the floor on the time any frame
// needs to cross a region boundary. The mesh is tiled into one
// rectangular region per shard (mesh.Partition); every node's events —
// cache, DRAM, RMC client and server work — run on its region's engine,
// and every frame travels through the windowed exchange drained at the
// set's barriers. A single-shard set runs the same exchange schedule, so
// figures are byte-identical at any shard count.
func New(p params.Params) (*Cluster, error) {
	// Validate before the shard set exists: it panics on the lookahead
	// window a bad calibration implies (a zero hop latency, say), where
	// the caller is owed the calibration error.
	if err := p.Validate(); err != nil {
		return nil, err
	}
	set := sim.NewShardSet(max(p.Shards, 1), p.LinkLat.MinLatency(p.HopLatency))
	topo, err := mesh.NewTopology(p.MeshWidth, p.MeshHeight)
	if err != nil {
		return nil, err
	}
	part, err := topo.Partition(set.Shards())
	if err != nil {
		return nil, err
	}
	c := &Cluster{p: p, set: set, topo: topo, part: part}
	// An empty plan builds no injector at all: the system is then
	// bit-identical — events, metrics families, figures — to one built
	// before the fault layer existed.
	if !p.Faults.Empty() {
		if err := validatePlanTopology(p.Faults, topo); err != nil {
			return nil, err
		}
		// Retransmit timers are scheduled from the window barrier, so
		// they must land at or past the window limit — a timeout shorter
		// than the lookahead window would fire into a shard's past. Only
		// armed plans can drop frames and start timers.
		if p.RetransmitTimeout < p.HopLatency {
			return nil, fmt.Errorf("cluster: retransmit timeout %v is shorter than the %v lookahead window; a fault plan needs RetransmitTimeout >= HopLatency", p.RetransmitTimeout, p.HopLatency)
		}
		c.inj = faults.NewInjector(p.Faults)
		c.inj.Register(set.Metrics())
	}
	switch p.Fabric {
	case params.FabricHToE:
		f, err := htoe.New(topo.Nodes(), htoe.DefaultConfig())
		if err != nil {
			return nil, err
		}
		f.InjectFaults(c.inj)
		c.fabric = f
	default:
		c.meshFab = mesh.NewFabric(set.Engine(0).Metrics(), topo, p, c.inj)
		c.fabric = c.meshFab
	}
	c.exSet = rmc.NewExchangeSet(set, c.fabric)
	if set.Shards() > 1 && c.meshFab != nil {
		// Install the lookahead machinery: B[j][i] from the mesh
		// geometry (and any -linklat table) and — under an armed fault
		// plan — the retransmit-timeout cap that keeps drain-time timers
		// in every shard's future. Express links added later tighten the
		// matrix, so the fabric recomputes it on topology changes — which
		// must happen with the set parked (before Run or between Run
		// calls): ConfigureLookahead panics mid-run, because a frame
		// routed over the new link inside the current window would be
		// bounded by the tighter matrix while the destination shard's
		// limit was planned with the old one.
		var capOver sim.Time
		if c.inj != nil {
			capOver = p.RetransmitTimeout
		}
		b := c.meshFab.MinDelayMatrix(part)
		set.ConfigureLookahead(b, capOver)
		c.exSet.SetSelfBounds(b)
		c.meshFab.OnTopologyChange(func() {
			nb := c.meshFab.MinDelayMatrix(c.part)
			set.ConfigureLookahead(nb, capOver)
			c.exSet.SetSelfBounds(nb)
		})
	}
	for id := addr.NodeID(1); int(id) <= topo.Nodes(); id++ {
		n, err := newNode(c, id)
		if err != nil {
			return nil, fmt.Errorf("cluster: building node %d: %w", id, err)
		}
		c.nodes = append(c.nodes, n)
	}
	c.register(set.Metrics())
	if c.inj != nil {
		// Stall windows are scheduled events: at each window's start the
		// node's server RMC loses the window's worth of capacity. The
		// event runs on the stalled node's own engine — the stall mutates
		// that node's server resource.
		for _, w := range p.Faults.Stalls {
			w := w
			n := c.nodes[w.Node-1]
			n.eng.At(sim.Time(w.Start), func() {
				n.rmc.StallServer(sim.Time(w.Start), sim.Time(w.End-w.Start))
			})
		}
	}
	return c, nil
}

// validatePlanTopology checks the plan's node and link references
// against the actual geometry — a plan naming a node outside the mesh
// (or a non-adjacent "link") would otherwise fail silently.
func validatePlanTopology(plan *faults.Plan, topo mesh.Topology) error {
	for _, lw := range plan.LinkDowns {
		if !topo.Contains(lw.From) || !topo.Contains(lw.To) {
			return fmt.Errorf("cluster: fault plan link %d-%d outside the %dx%d mesh", lw.From, lw.To, topo.W, topo.H)
		}
		if topo.Hops(lw.From, lw.To) != 1 {
			return fmt.Errorf("cluster: fault plan link %d-%d is not a mesh link", lw.From, lw.To)
		}
	}
	for _, set := range [][]faults.NodeWindow{plan.NackStorms, plan.Stalls} {
		for _, nw := range set {
			if !topo.Contains(nw.Node) {
				return fmt.Errorf("cluster: fault plan node %d outside the %dx%d mesh", nw.Node, topo.W, topo.H)
			}
		}
	}
	return nil
}

// Set returns the shard set driving the cluster.
func (c *Cluster) Set() *sim.ShardSet { return c.set }

// Exchanges returns the per-shard exchange set (for the oracle tests'
// trace hook).
func (c *Cluster) Exchanges() *rmc.ExchangeSet { return c.exSet }

// Topology returns the mesh geometry.
func (c *Cluster) Topology() mesh.Topology { return c.topo }

// MeshFabric returns the concrete mesh fabric (for express-link setup);
// it errors when the cluster runs a different interconnect.
func (c *Cluster) MeshFabric() (*mesh.Fabric, error) {
	if c.meshFab == nil {
		return nil, fmt.Errorf("cluster: the %v interconnect has no mesh fabric", c.p.Fabric)
	}
	return c.meshFab, nil
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns the node with the given identifier.
func (c *Cluster) Node(id addr.NodeID) (*Node, error) {
	if id == 0 || int(id) > len(c.nodes) {
		return nil, fmt.Errorf("cluster: no node %d", id)
	}
	return c.nodes[id-1], nil
}

// MustNode is Node for static identifiers in experiments.
func (c *Cluster) MustNode(id addr.NodeID) *Node {
	n, err := c.Node(id)
	if err != nil {
		panic(err)
	}
	return n
}

// RMC implements rmc.Peers.
func (c *Cluster) RMC(id addr.NodeID) (*rmc.RMC, error) {
	n, err := c.Node(id)
	if err != nil {
		return nil, err
	}
	return n.rmc, nil
}

// Store returns the functional memory of a node, for OS-level machinery
// (reservation, swap transfer) that moves data outside the timed path.
func (c *Cluster) Store(id addr.NodeID) (*mem.Store, error) {
	n, err := c.Node(id)
	if err != nil {
		return nil, err
	}
	return n.store, nil
}

// Node is one motherboard: a coherency domain plus its RMC.
type Node struct {
	id      addr.NodeID
	cluster *Cluster
	p       params.Params
	eng     *sim.Engine

	memmap *addr.MemMap
	caches *cache.Hierarchy
	bank   *dram.Bank
	store  *mem.Store
	rmc    *rmc.RMC
	pf     *prefetch.Detector

	tagseq uint16

	// issueOps is the free list of reified Issue continuations; one op
	// carries a single access from issue to completion with its
	// callbacks prebound, so the steady-state hit/fill/remote paths
	// schedule without allocating. bulkIssues is its twin for IssueBulk,
	// pfOps for prefetch fills.
	issueOps   []*issueOp
	bulkIssues []*bulkIssue
	pfOps      []*pfOp

	// LocalOps and RemoteOps count issued line operations by
	// destination; Prefetches counts prefetch fills requested;
	// FlushedDirty counts dirty lines written back by FlushCaches.
	LocalOps, RemoteOps, Prefetches, FlushedDirty uint64

	// AbandonedOps counts remote operations that failed with an
	// unreachable destination after the RMC's retransmit budget — only
	// possible under a fault plan.
	AbandonedOps uint64
}

func newNode(c *Cluster, id addr.NodeID) (*Node, error) {
	p := c.p
	mm, err := addr.NewMemMap(id, c.topo.Nodes(), p.MemPerNode)
	if err != nil {
		return nil, err
	}
	caches, err := cache.NewHierarchy(p.SocketsPerNode, cache.DefaultConfig())
	if err != nil {
		return nil, err
	}
	store, err := mem.NewStore(p.MemPerNode)
	if err != nil {
		return nil, err
	}
	pf, err := prefetch.New(p.PrefetchDepth, cache.DefaultConfig().LineSize)
	if err != nil {
		return nil, err
	}
	shard := c.part.ShardOf(id)
	eng := c.set.Engine(shard)
	n := &Node{
		id:      id,
		cluster: c,
		p:       p,
		eng:     eng,
		memmap:  mm,
		caches:  caches,
		bank:    dram.NewBank(p),
		store:   store,
		pf:      pf,
	}
	n.rmc, err = rmc.New(rmc.Config{
		Self:   id,
		Params: p,
		Peers:  c,
		Bank:   n.bank,
		Store:  store,
		Faults: c.inj,
		Exch:   c.exSet.Shard(shard),
		Now:    c.set.Now,
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// register adds the families of every node — cache and op-mix tallies
// (the cache hierarchy has no engine reference, so they are read from
// here rather than from inside package cache) and the counters of each
// node's memory controllers — enumerated at snapshot time.
func (c *Cluster) register(m *metrics.Registry) {
	perNode := func(name, help string, v func(*Node) uint64) {
		m.Counters(name, help, []string{"node"}, func(e *metrics.Emitter) {
			for _, n := range c.nodes {
				e.Value(float64(v(n)), e.Itoa(int(n.id)))
			}
		})
	}
	perNode(metrics.FamCacheAccesses, "cache hierarchy accesses", func(n *Node) uint64 { return n.caches.Accesses })
	perNode(metrics.FamCacheHits, "cache hits", func(n *Node) uint64 { return n.caches.Hits })
	perNode(metrics.FamCacheMisses, "cache misses", func(n *Node) uint64 { return n.caches.Misses })
	perNode(metrics.FamCacheWritebacks, "dirty lines written back", func(n *Node) uint64 { return n.caches.Writebacks })
	perNode(metrics.FamCacheFlushedDirty, "dirty lines flushed at phase changes", func(n *Node) uint64 { return n.FlushedDirty })
	perNode(metrics.FamNodeLocalOps, "line operations served by local memory", func(n *Node) uint64 { return n.LocalOps })
	perNode(metrics.FamNodeRemoteOps, "line operations forwarded to remote memory", func(n *Node) uint64 { return n.RemoteOps })
	perNode(metrics.FamNodePrefetches, "prefetch fills requested", func(n *Node) uint64 { return n.Prefetches })
	if c.inj != nil {
		perNode(metrics.FamNodeAbandonedOps, "remote operations abandoned as unreachable", func(n *Node) uint64 { return n.AbandonedOps })
	}
	perController := func(name, help string, v func(*dram.Controller) uint64) {
		m.Counters(name, help, []string{"mc", "node"}, func(e *metrics.Emitter) {
			for _, n := range c.nodes {
				ctrls := n.bank.Controllers()
				for s := range ctrls {
					e.Value(float64(v(&ctrls[s])), e.Itoa(s), e.Itoa(int(n.id)))
				}
			}
		})
	}
	perController(metrics.FamDRAMReads, "read requests serviced", func(mc *dram.Controller) uint64 { return mc.Reads })
	perController(metrics.FamDRAMWrites, "write requests serviced", func(mc *dram.Controller) uint64 { return mc.Writes })
	perController(metrics.FamDRAMRowHits, "accesses landing in the open row", func(mc *dram.Controller) uint64 { return mc.RowHits })
	perController(metrics.FamDRAMRowConflicts, "accesses evicting the open row", func(mc *dram.Controller) uint64 { return mc.RowConflicts })
}

// ID returns the node identifier.
func (n *Node) ID() addr.NodeID { return n.id }

// Engine returns the shard engine the node's events run on. Threads
// driving this node must schedule here.
func (n *Node) Engine() *sim.Engine { return n.eng }

// RMC returns the node's remote memory controller.
func (n *Node) RMC() *rmc.RMC { return n.rmc }

// Caches returns the node's coherent cache domain.
func (n *Node) Caches() *cache.Hierarchy { return n.caches }

// Bank returns the node's memory controllers.
func (n *Node) Bank() *dram.Bank { return n.bank }

// Store returns the node's functional memory.
func (n *Node) Store() *mem.Store { return n.store }

// MemMap returns the node's view of the cluster memory map.
func (n *Node) MemMap() *addr.MemMap { return n.memmap }

// FlushCaches writes back and invalidates every line in the node's
// coherent domain — the operation the prototype performs between a
// write phase and a read-only parallel phase. Timing: the flush itself
// is modeled as instantaneous control work; each dirty line's writeback
// consumes memory/RMC/fabric capacity from now on, so subsequent
// accesses contend with the flush traffic. It returns the number of
// dirty lines written back.
func (n *Node) FlushCaches(now sim.Time) int {
	// The hierarchy does not remember victim addresses on a bulk flush,
	// so the writeback traffic is modeled as that many line writes to
	// the local controllers (remote dirty lines would add RMC traffic;
	// the discipline of the paper flushes before the data is re-read,
	// when that traffic has already drained).
	dirty := n.caches.FlushAll()
	n.FlushedDirty += uint64(dirty)
	for i := 0; i < dirty; i++ {
		if _, err := n.bank.Access(now, addr.Phys(uint64(i)*params.CacheLineSize%n.p.MemPerNode), true); err != nil {
			panic(fmt.Sprintf("cluster: node %d flush writeback: %v", n.id, err))
		}
	}
	return dirty
}

// IsRemote implements cpu.MemorySystem: an address is remote exactly when
// the node's memory map — the processors' BAR comparison — routes it to
// the RMC. An address no segment claims panics.
func (n *Node) IsRemote(a addr.Phys) bool {
	t, err := n.memmap.Route(a)
	if err != nil {
		panic(fmt.Sprintf("cluster: node %d has no route for %v: %v", n.id, a, err))
	}
	return t == addr.TargetRMC
}

// socketOf maps a core index to its socket.
func (n *Node) socketOf(core int) int {
	perSocket := n.p.CoresPerNode / n.p.SocketsPerNode
	if perSocket < 1 {
		perSocket = 1
	}
	s := core / perSocket
	if s >= n.p.SocketsPerNode {
		s = n.p.SocketsPerNode - 1
	}
	return s
}

// issueOp carries one Issue from schedule to completion. Allocated once,
// callbacks bound once, recycled when the access completes — the RMC
// invokes done exactly once per request (even under faults), so
// recycling here is unconditional.
type issueOp struct {
	n    *Node
	done func(sim.Time)

	completeFn func()
	remoteFn   func(sim.Time, ht.Packet, error)
}

func (n *Node) getIssueOp() *issueOp {
	if l := len(n.issueOps); l > 0 {
		op := n.issueOps[l-1]
		n.issueOps = n.issueOps[:l-1]
		return op
	}
	op := &issueOp{n: n}
	op.completeFn = func() {
		done := op.done
		op.n.putIssueOp(op)
		done(op.n.eng.Now())
	}
	op.remoteFn = func(t sim.Time, _ ht.Packet, rerr error) {
		if rerr != nil {
			// Graceful degradation: the destination stayed unreachable
			// past the retransmit budget. The op still completes (the
			// thread would take a machine-check, not hang), counted.
			op.n.AbandonedOps++
		}
		done := op.done
		op.n.putIssueOp(op)
		done(t)
	}
	return op
}

func (n *Node) putIssueOp(op *issueOp) {
	op.done = nil
	n.issueOps = append(n.issueOps, op)
}

// Issue implements cpu.MemorySystem. The access runs through the cache
// hierarchy; a hit completes at probe-adjusted cache latency, a miss
// fills the line from the owning memory — a local controller or, for
// prefixed addresses, the RMC round trip. Dirty victims are written back
// asynchronously to their owner.
func (n *Node) Issue(now sim.Time, core int, a cpu.Access, express bool, done func(sim.Time)) {
	res, err := n.caches.Access(n.socketOf(core), a.Addr, a.Write)
	if err != nil {
		panic(fmt.Sprintf("cluster: node %d cache access: %v", n.id, err))
	}
	lat := n.p.L1Latency + sim.Time(res.Probes)*n.p.CacheProbeLatency
	if res.VictimDirty {
		n.writeback(now, res.Victim)
	}
	line := a.Addr.Line(n.caches.LineSize())
	remote := n.IsRemote(line)
	if remote {
		// Feed the stream detector on every remote access, hit or miss:
		// hits on previously prefetched lines are exactly what keeps a
		// stream alive and the prefetcher running ahead of it.
		n.maybePrefetch(now+lat, core, line)
	}
	op := n.getIssueOp()
	op.done = done
	if res.Hit {
		n.eng.At(now+lat, op.completeFn)
		return
	}
	if !remote {
		n.LocalOps++
		memDone, err := n.bank.Access(now+lat, line, a.Write)
		if err != nil {
			panic(fmt.Sprintf("cluster: node %d local fill: %v", n.id, err))
		}
		n.eng.At(memDone, op.completeFn)
		return
	}

	n.RemoteOps++
	if err := n.rmc.Request(now+lat, n.linePacket(line, a.Write), express, op.remoteFn); err != nil {
		panic(fmt.Sprintf("cluster: node %d RMC request: %v", n.id, err))
	}
}

// pfOp carries one prefetch fill from request to install, its callback
// prebound like issueOp's — the RMC invokes done exactly once per
// request (even under faults), so recycling is unconditional and the
// steady-state prefetch stream schedules without allocating.
type pfOp struct {
	n      *Node
	line   addr.Phys
	socket int

	doneFn func(sim.Time, ht.Packet, error)
}

func (n *Node) getPfOp() *pfOp {
	if l := len(n.pfOps); l > 0 {
		op := n.pfOps[l-1]
		n.pfOps = n.pfOps[:l-1]
		return op
	}
	op := &pfOp{n: n}
	op.doneFn = func(t sim.Time, rsp ht.Packet, rerr error) {
		n := op.n
		line, socket := op.line, op.socket
		n.putPfOp(op)
		n.pf.Completed(line)
		if rerr != nil {
			// A prefetch that could not reach its donor is simply lost
			// speculation; the demand stream will retry.
			return
		}
		if rsp.Cmd == ht.CmdTgtAbort {
			// The stream ran past what this node was granted; the
			// serving RMC refused the fill. Drop it silently — a
			// prefetcher must never widen the protection domain.
			return
		}
		res, err := n.caches.Install(socket, line)
		if err != nil {
			panic(fmt.Sprintf("cluster: node %d prefetch install: %v", n.id, err))
		}
		if res.VictimDirty {
			n.writeback(t, res.Victim)
		}
	}
	return op
}

func (n *Node) putPfOp(op *pfOp) {
	n.pfOps = append(n.pfOps, op)
}

// maybePrefetch feeds the demand miss to the stream detector and issues
// RMC reads for whatever it asks, installing the lines into the issuing
// core's cache when the fills return. Prefetch traffic uses the ordinary
// mesh path and RMC queues; only the core's outstanding-request window
// does not apply (the prefetcher is the RMC's engine, not the core's).
func (n *Node) maybePrefetch(now sim.Time, core int, line addr.Phys) {
	for _, pf := range n.pf.Observe(core, line) {
		if uint64(pf.Local())+n.caches.LineSize() > n.p.MemPerNode {
			n.pf.Completed(pf) // past the end of the donor's memory
			continue
		}
		if n.caches.Present(pf) {
			n.pf.Completed(pf) // already cached: nothing to fetch
			continue
		}
		n.tagseq++
		req := ht.Packet{Cmd: ht.CmdRdSized, SrcTag: n.tagseq, Addr: pf, Count: int(n.caches.LineSize())}
		op := n.getPfOp()
		op.line, op.socket = pf, n.socketOf(core)
		if err := n.rmc.Request(now, req, false, op.doneFn); err != nil {
			n.putPfOp(op)
			n.pf.Completed(pf)
			continue
		}
		n.Prefetches++
	}
}

// linePacket builds a line-granular fill/write packet. The timed path
// moves no bytes in either direction: no payload goes out with a write,
// and none comes back with a read. The cpu layer models instruction
// streams, not payloads, and real data moves through core.Region's Read
// and Write or the bulk plane. ht.FlitBytes still prices Count bytes on
// the wire for a payload-less write or read response, so link timing is
// that of a full line.
func (n *Node) linePacket(line addr.Phys, write bool) ht.Packet {
	n.tagseq++
	pkt := ht.Packet{Cmd: ht.CmdRdSized, SrcTag: n.tagseq, Addr: line, Count: int(n.caches.LineSize())}
	if write {
		pkt.Cmd = ht.CmdWrSized
	}
	return pkt
}

// writeback pushes a dirty victim line to its owner: local lines cost a
// controller write; remote lines a posted RMC write that consumes fabric
// and RMC capacity but completes asynchronously (no thread waits on it).
func (n *Node) writeback(now sim.Time, victim addr.Phys) {
	line := victim.Line(n.caches.LineSize())
	if !n.IsRemote(line) {
		if _, err := n.bank.Access(now, line, true); err != nil {
			panic(fmt.Sprintf("cluster: node %d victim writeback: %v", n.id, err))
		}
		return
	}
	pkt := n.linePacket(line, true)
	pkt.Posted = true
	// A posted write has no requester waiting; an unreachable owner is
	// the one place where writeback data can genuinely be lost.
	if err := n.rmc.Request(now, pkt, false, postedDone); err != nil {
		panic(fmt.Sprintf("cluster: node %d victim RMC write: %v", n.id, err))
	}
}

// postedDone is the shared completion for posted writebacks: nothing
// waits on them, and a top-level func keeps the call allocation-free.
func postedDone(sim.Time, ht.Packet, error) {}

var _ cpu.MemorySystem = (*Node)(nil)
