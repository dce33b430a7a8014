// Package params is the single calibration point for the reproduction.
//
// Every latency, occupancy, and size used by both the micro
// (discrete-event) and macro (locality-model) layers comes from a Params
// value, so the two layers can never drift apart and experiments can
// sweep a parameter by copying and editing one struct.
//
// The defaults model the CLUSTER 2010 prototype: 16 nodes of 4×quad-core
// 2.1 GHz Opterons, DDR2-800 memory, FPGA HTX cards on a 4×4 2D mesh.
// Absolute values are our calibration (see DESIGN.md §5); the paper's
// evaluation shapes emerge from the ratios between them.
package params

import (
	"fmt"
	"time"

	"repro/internal/faults"
)

// Duration values are expressed in picoseconds internally (the simulator
// clock unit) to keep event arithmetic in integers.
type Duration = int64

// Picosecond-based unit constants for simulator time.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// ToStd converts a simulator duration to a time.Duration (ns resolution).
func ToStd(d Duration) time.Duration { return time.Duration(d/Nanosecond) * time.Nanosecond }

// FromStd converts a time.Duration to simulator picoseconds.
func FromStd(d time.Duration) Duration { return Duration(d.Nanoseconds()) * Nanosecond }

// Geometry and protocol constants fixed by the paper.
const (
	// NodePrefixBits is the number of most-significant physical-address
	// bits that carry the owning node identifier (paper Section III-B).
	NodePrefixBits = 14

	// PhysAddrBits is the width of a physical address. 14 prefix bits on
	// top of a 34-bit local space (16 GB/node) matches Figure 3's map.
	PhysAddrBits = 48

	// CacheLineSize is the coherency/transfer granule in bytes.
	CacheLineSize = 64

	// PageSize is the OS page size in bytes.
	PageSize = 4096
)

// FabricKind selects the inter-node interconnect.
type FabricKind int

// Interconnect choices.
const (
	// FabricMesh is the prototype's direct 4×4 2D mesh of HTX cards.
	FabricMesh FabricKind = iota
	// FabricHToE is HyperTransport-over-Ethernet through a central
	// switch — the consortium-standardized option the paper mentions.
	FabricHToE
)

func (k FabricKind) String() string {
	switch k {
	case FabricMesh:
		return "2D mesh"
	case FabricHToE:
		return "HT-over-Ethernet"
	default:
		return fmt.Sprintf("FabricKind(%d)", int(k))
	}
}

// Params aggregates every tunable of the modeled system.
type Params struct {
	// Fabric selects the interconnect (mesh by default).
	Fabric FabricKind

	// ---- Cluster geometry ----

	// MeshWidth and MeshHeight give the 2D-mesh dimensions. The prototype
	// is 4×4 = 16 nodes; larger fabrics (up to the prefix-space limit)
	// are first-class and can be driven with -mesh NxN on both CLIs.
	MeshWidth, MeshHeight int

	// Shards is the number of parallel simulation shards (mesh regions
	// advanced concurrently under conservative lookahead windows).
	// 0 or 1 selects the single-shard engine; figures are byte-identical
	// at any valid setting. Shards > 1 requires the mesh fabric and must
	// tile the geometry (see mesh.Partition).
	Shards int

	// LinkLat optionally overrides per-edge mesh link latencies (the
	// -linklat flag). The empty spec keeps every edge at HopLatency, so
	// defaults reproduce the uniform fabric exactly.
	LinkLat LinkLatSpec

	// CoresPerNode is the number of cores in one coherency domain (16 in
	// the prototype: 4 sockets × 4 cores).
	CoresPerNode int

	// SocketsPerNode is the number of memory controllers per node.
	SocketsPerNode int

	// MemPerNode is the physical memory per node in bytes (16 GB).
	MemPerNode uint64

	// PrivateMemPerNode is memory reserved for the local OS and never
	// pooled (8 GB in the prototype; the other 8 GB join the 128 GB pool).
	PrivateMemPerNode uint64

	// ---- Core / cache ----

	// LocalOutstanding is the number of in-flight local memory requests a
	// core sustains (8 on Opteron).
	LocalOutstanding int

	// RemoteOutstanding is the number of in-flight requests a core may
	// have against the RMC-mapped range. The prototype's RMC is an HT
	// I/O unit, which limits this to 1 (paper Section IV-B).
	RemoteOutstanding int

	// L1Latency is the cache hit latency.
	L1Latency Duration

	// CacheProbeLatency is the cost of an intra-node coherency probe.
	CacheProbeLatency Duration

	// ---- DRAM ----

	// DRAMLatency is the loaded access latency of a local DRAM read.
	DRAMLatency Duration

	// DRAMOccupancy is the controller service occupancy per request
	// (bandwidth bound: one request per occupancy per controller).
	DRAMOccupancy Duration

	// ---- Mesh / HNC-HT fabric ----

	// HopLatency is the traversal latency of one mesh hop
	// (link serialization + router).
	HopLatency Duration

	// LinkOccupancy is the per-packet occupancy of one link (inverse
	// bandwidth for a cache-line packet).
	LinkOccupancy Duration

	// ---- RMC ----

	// RMCClientOccupancy is the client-side RMC service time per request
	// (HT→HNC bridging, store-and-forward through the FPGA).
	RMCClientOccupancy Duration

	// RMCServerOccupancy is the server-side RMC service time per request
	// (prefix zeroing + replay into the local memory system).
	RMCServerOccupancy Duration

	// RMCQueueDepth is the bounded request queue of an RMC. Requests
	// arriving at a full queue are retried after RMCRetryPenalty and waste
	// RMCRetryWaste of the RMC's service capacity (NACK processing). This
	// is the mechanism behind Fig 7's "farther is slightly faster".
	RMCQueueDepth int

	// RMCRetryPenalty is the requester-side backoff before reissuing a
	// NACKed request.
	RMCRetryPenalty Duration

	// RMCRetryWaste is the RMC service capacity consumed by processing and
	// NACKing a request that found the queue full.
	RMCRetryWaste Duration

	// OSReserveBytes is the low watermark of private memory the OS keeps
	// for itself: process heaps spill to remote memory once private free
	// memory would fall below it — the "running out of local memory"
	// trigger of the Figure 4 narrative, with headroom so the kernel
	// never starves.
	OSReserveBytes uint64

	// EnableProtection arms the serving RMC's access-control check: a
	// node may only touch frames actually granted to it; everything else
	// is answered with Target Abort. Off by default — the prototype (and
	// the paper) defers the security component.
	EnableProtection bool

	// PrefetchDepth is how many lines ahead the RMC's sequential
	// prefetcher runs on detected streams. 0 (the prototype) disables
	// it; the paper names prefetching as the future work that should
	// "bring the performance closer to local memory".
	PrefetchDepth int

	// ---- Bulk data plane ----

	// BulkFrameLines is the number of cache lines one bulk data frame
	// carries. Bigger frames amortize the 8-byte HNC header and the
	// per-frame CRC/ack machinery over more payload but raise the cost
	// of a retransmission when a fault plan drops one. Default sets
	// DefaultBulkFrameLines; Validate requires 1..MaxBulkFrameLines.
	BulkFrameLines int

	// BulkMaxFrames caps the data frames of one burst; the wire format
	// (frame index and burst length share the 16-bit tag) allows at most
	// 256. Callers split larger transfers into multiple bursts. Default
	// sets DefaultBulkMaxFrames; Validate requires 1..MaxBulkFrames.
	BulkMaxFrames int

	// ---- Remote swap / disk baselines ----

	// SwapTrapOverhead is the OS cost of a page fault handled by the
	// (remote or disk) swap path: trap, handler, page-table fixup, return.
	SwapTrapOverhead Duration

	// SwapPageTransfer is the cost of moving one 4 KiB page through the
	// remote-swap path: network stack, swap daemon, and wire time
	// (excludes per-hop latency, added separately by distance). 2010-era
	// remote swappers report page-in services of a few hundred µs —
	// "slightly faster than a local disk access" in the paper's words —
	// because the OS is on the path for every page, which is precisely
	// the overhead the RMC eliminates.
	SwapPageTransfer Duration

	// SwapResidentPages is the number of pages the swap client can keep
	// resident locally (local memory dedicated to the swapped dataset).
	SwapResidentPages int

	// DiskLatency is the cost of a disk swap-in (seek-bound HDD).
	DiskLatency Duration

	// ---- Fault injection and recovery ----

	// Faults, when non-nil and non-empty, schedules deterministic fabric
	// misbehaviour (see package faults) and arms the recovery machinery:
	// sender-side retransmission at the RMC, detour routing in the mesh,
	// and a typed failure after RetransmitBudget is exhausted. A nil or
	// empty plan leaves every timed path bit-identical to a build
	// without the fault layer.
	Faults *faults.Plan

	// RetransmitTimeout is the sender-side wait before a frame that drew
	// no response outcome (dropped, corrupted, or unroutable) is resent.
	// Successive retransmissions back off exponentially, capped at
	// RetransmitTimeout << RetransmitBackoffCap.
	RetransmitTimeout Duration

	// RetransmitBackoffCap caps the exponential backoff shift.
	RetransmitBackoffCap uint

	// RetransmitBudget is how many retransmissions the RMC attempts
	// before abandoning the request with an Unreachable error — the
	// graceful-degradation bound that keeps the event loop from spinning
	// on a dead destination forever.
	RetransmitBudget int

	// ---- Coherent-DSM baseline (ablation) ----

	// CohDirectoryLatency is the home-directory lookup/update cost per
	// coherence transaction in the inter-node coherent DSM baseline.
	CohDirectoryLatency Duration

	// CohProtocolOverhead is the per-sharer invalidation/ack cost.
	CohProtocolOverhead Duration
}

// Default returns the calibrated prototype parameter set.
func Default() Params {
	return Params{
		MeshWidth:      4,
		MeshHeight:     4,
		CoresPerNode:   16,
		SocketsPerNode: 4,

		MemPerNode:        16 << 30,
		PrivateMemPerNode: 8 << 30,
		OSReserveBytes:    512 << 20,

		LocalOutstanding:  8,
		RemoteOutstanding: 1,

		L1Latency:         1 * Nanosecond,
		CacheProbeLatency: 40 * Nanosecond,

		DRAMLatency:   80 * Nanosecond,
		DRAMOccupancy: 10 * Nanosecond,

		HopLatency:    120 * Nanosecond,
		LinkOccupancy: 16 * Nanosecond,

		RMCClientOccupancy: 420 * Nanosecond,
		RMCServerOccupancy: 110 * Nanosecond,
		RMCQueueDepth:      1,
		RMCRetryPenalty:    100 * Nanosecond,
		// 30 ns: calibrated so NACK storms at the depth-1 client queue
		// reproduce Fig 7's monotone "farther is slightly faster"
		// inversion under penalty-aware queue accounting (Penalize holds
		// the queue slots of delayed requests; see sim.Resource).
		RMCRetryWaste: 30 * Nanosecond,

		// Retransmission covers one worst-case unloaded round trip (a
		// 6-hop request + response plus both RMC services is ~2.1 µs),
		// so a timeout fires only for frames that are genuinely gone.
		RetransmitTimeout:    3 * Microsecond,
		RetransmitBackoffCap: 6,
		RetransmitBudget:     8,

		BulkFrameLines: DefaultBulkFrameLines,
		BulkMaxFrames:  DefaultBulkMaxFrames,

		SwapTrapOverhead:  30 * Microsecond,
		SwapPageTransfer:  170 * Microsecond,
		SwapResidentPages: 2048, // 8 MiB of page cache for the swapped set
		DiskLatency:       5 * Millisecond,

		CohDirectoryLatency: 500 * Nanosecond,
		CohProtocolOverhead: 700 * Nanosecond,
	}
}

// Nodes returns the node count implied by the mesh geometry.
func (p Params) Nodes() int { return p.MeshWidth * p.MeshHeight }

// PooledMemPerNode returns the per-node contribution to the shared pool.
func (p Params) PooledMemPerNode() uint64 { return p.MemPerNode - p.PrivateMemPerNode }

// PoolSize returns the total shared-pool capacity (128 GB by default).
func (p Params) PoolSize() uint64 { return p.PooledMemPerNode() * uint64(p.Nodes()) }

// RemoteRoundTrip estimates the unloaded round-trip latency of one remote
// cache-line read at the given hop distance. It is the sum of the client
// RMC service, the request path, the server RMC service, the remote DRAM
// access, and the response path.
func (p Params) RemoteRoundTrip(hops int) Duration {
	path := Duration(hops) * p.HopLatency
	return p.RMCClientOccupancy + path + p.RMCServerOccupancy + p.DRAMLatency + path
}

// Validate reports the first inconsistency in the parameter set.
func (p Params) Validate() error {
	switch {
	case p.MeshWidth < 1 || p.MeshHeight < 1:
		return fmt.Errorf("params: mesh %dx%d must be at least 1x1", p.MeshWidth, p.MeshHeight)
	case p.MeshWidth >= 1<<NodePrefixBits || p.MeshHeight >= 1<<NodePrefixBits || p.Nodes() >= 1<<NodePrefixBits:
		// Each dimension is bounded before Nodes multiplies them: past
		// ~3e9 a side the product overflows int and reads as small.
		return fmt.Errorf("params: mesh %dx%d exceeds the %d-bit node prefix space (node 0 is reserved)", p.MeshWidth, p.MeshHeight, NodePrefixBits)
	case p.CoresPerNode < 1:
		return fmt.Errorf("params: CoresPerNode %d < 1", p.CoresPerNode)
	case p.SocketsPerNode < 1:
		return fmt.Errorf("params: SocketsPerNode %d < 1", p.SocketsPerNode)
	case p.MemPerNode == 0 || p.MemPerNode%PageSize != 0:
		return fmt.Errorf("params: MemPerNode %d must be a positive multiple of the page size", p.MemPerNode)
	case p.PrivateMemPerNode > p.MemPerNode:
		return fmt.Errorf("params: private memory %d exceeds node memory %d", p.PrivateMemPerNode, p.MemPerNode)
	case p.PrivateMemPerNode%PageSize != 0:
		return fmt.Errorf("params: PrivateMemPerNode %d must be page aligned", p.PrivateMemPerNode)
	case p.OSReserveBytes >= p.PrivateMemPerNode:
		return fmt.Errorf("params: OS reserve %d swallows the whole private zone %d", p.OSReserveBytes, p.PrivateMemPerNode)
	case p.MemPerNode > 1<<(PhysAddrBits-NodePrefixBits):
		return fmt.Errorf("params: MemPerNode %d does not fit the local address space", p.MemPerNode)
	case p.LocalOutstanding < 1 || p.RemoteOutstanding < 1:
		return fmt.Errorf("params: outstanding windows must be >= 1 (local %d, remote %d)", p.LocalOutstanding, p.RemoteOutstanding)
	case p.RMCQueueDepth < 1:
		return fmt.Errorf("params: RMCQueueDepth %d < 1", p.RMCQueueDepth)
	case p.PrefetchDepth < 0:
		return fmt.Errorf("params: PrefetchDepth %d < 0", p.PrefetchDepth)
	case p.BulkFrameLines < 1 || p.BulkFrameLines > MaxBulkFrameLines:
		return fmt.Errorf("params: BulkFrameLines %d outside [1,%d]", p.BulkFrameLines, MaxBulkFrameLines)
	case p.BulkMaxFrames < 1 || p.BulkMaxFrames > MaxBulkFrames:
		return fmt.Errorf("params: BulkMaxFrames %d outside [1,%d]", p.BulkMaxFrames, MaxBulkFrames)
	case p.DRAMLatency <= 0 || p.HopLatency <= 0 || p.RMCClientOccupancy <= 0 || p.RMCServerOccupancy <= 0:
		return fmt.Errorf("params: latencies must be positive")
	case p.RMCRetryPenalty <= 0:
		// A NACKed request would retry at the instant it was refused,
		// and simulated time would never advance.
		return fmt.Errorf("params: RMCRetryPenalty %d ps must be positive", p.RMCRetryPenalty)
	case p.SwapResidentPages < 1:
		return fmt.Errorf("params: SwapResidentPages %d < 1", p.SwapResidentPages)
	case p.Fabric != FabricMesh && p.Fabric != FabricHToE:
		return fmt.Errorf("params: unknown fabric kind %d", int(p.Fabric))
	case p.Shards < 0:
		return fmt.Errorf("params: Shards %d < 0", p.Shards)
	case p.Shards > p.Nodes():
		return fmt.Errorf("params: Shards %d exceed %d nodes", p.Shards, p.Nodes())
	}
	// No time may run backwards: a negative cost prints negative
	// figures or schedules events into the past.
	for _, d := range [...]struct {
		name string
		v    Duration
	}{
		{"L1Latency", p.L1Latency},
		{"CacheProbeLatency", p.CacheProbeLatency},
		{"DRAMOccupancy", p.DRAMOccupancy},
		{"LinkOccupancy", p.LinkOccupancy},
		{"RMCRetryWaste", p.RMCRetryWaste},
		{"SwapTrapOverhead", p.SwapTrapOverhead},
		{"SwapPageTransfer", p.SwapPageTransfer},
		{"DiskLatency", p.DiskLatency},
		{"RetransmitTimeout", p.RetransmitTimeout},
		{"CohDirectoryLatency", p.CohDirectoryLatency},
		{"CohProtocolOverhead", p.CohProtocolOverhead},
	} {
		if d.v < 0 {
			return fmt.Errorf("params: %s %d ps must not be negative", d.name, d.v)
		}
	}
	if p.Shards > 1 && p.Fabric != FabricMesh {
		return &ShardGateError{Feature: "the " + p.Fabric.String() + " fabric", Shards: p.Shards}
	}
	if err := p.LinkLat.validateFor(p.MeshWidth, p.MeshHeight); err != nil {
		return err
	}
	// The recovery tunables only matter (and are only required) when a
	// fault plan can actually lose frames.
	if !p.Faults.Empty() {
		switch {
		case p.RetransmitTimeout <= 0:
			return fmt.Errorf("params: RetransmitTimeout %d must be positive under a fault plan", p.RetransmitTimeout)
		case p.RetransmitBudget < 1:
			return fmt.Errorf("params: RetransmitBudget %d < 1 under a fault plan", p.RetransmitBudget)
		}
	}
	return p.Faults.Validate()
}
