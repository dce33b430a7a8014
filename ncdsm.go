// Package ncdsm is the public face of the non-coherent distributed
// shared-memory library — a reproduction of "Getting Rid of Coherency
// Overhead for Memory-Hungry Applications" (Montaner, Silla, Fröning,
// Duato; IEEE CLUSTER 2010).
//
// The library models a cluster whose nodes can lend each other physical
// memory through a Remote Memory Controller (RMC): a process stays on
// one node's cores and caches (one coherency domain) while its memory
// region grows with frames reserved on other nodes. Accesses to those
// frames are plain loads and stores — the 14 most-significant physical-
// address bits route them through the RMC to the owning node with no
// software on the path and no inter-node coherency traffic, ever.
//
// Quick start:
//
//	sys, err := ncdsm.New(ncdsm.DefaultConfig())        // 16-node 4×4 prototype
//	region, err := sys.Region(1)                         // node 1's memory region
//	ptr, err := region.Malloc(32 << 30)                  // spills to remote nodes
//	err = region.Write(ptr, data)                        // functional access
//	v, err := region.ReadUint64(ptr)                     // functional load
//	err = region.Access(ncdsm.AccessRequest{             // timed access (simulated)
//		Pointer: ptr, Done: onDone,
//	})
//	sys.Run()
//	snap := sys.Metrics()                                // cluster-wide observability
//
// The packages under internal/ implement the substrates (HyperTransport
// and its High Node Count extension, the 2D-mesh fabric, caches, DRAM,
// the RMC itself, the OS reservation protocol, allocators, the swap and
// coherent-DSM baselines, and the evaluation harness); ncdsm re-exposes
// the surface a downstream user needs.
package ncdsm

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/addr"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/memdir"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/rmc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Config is the cluster calibration; see DefaultConfig.
type Config = params.Params

// DefaultConfig returns the paper's 16-node prototype: 4×4 mesh, 16
// cores and 16 GB per node, 8 GB per node pooled into a 128 GB cluster-
// wide shared pool, and the FPGA-era RMC timings of DESIGN.md §5.
func DefaultConfig() Config { return params.Default() }

// NodeID identifies a cluster node (1-based; 0 is reserved).
type NodeID = addr.NodeID

// Pointer is a virtual address inside a region's process.
type Pointer = vm.Virt

// Time is simulated time in picoseconds.
type Time = sim.Time

// FaultPlan is a seeded, deterministic fault schedule for the fabric:
// per-traversal drop/corrupt/delay probabilities, link-down windows,
// NACK storms, and node stalls. Set Config.Faults to arm it; a nil or
// empty plan leaves the system bit-identical to a fault-free build.
// Runs with the same plan (same seed) replay the same faults exactly.
type FaultPlan = faults.Plan

// FaultWindow is a half-open [Start, End) simulated-time interval.
type FaultWindow = faults.Window

// LinkFault schedules a bidirectional mesh-link outage.
type LinkFault = faults.LinkWindow

// NodeFault schedules a per-node fault window (storm or stall).
type NodeFault = faults.NodeWindow

// ParseFaultPlan reads the CLI spec syntax, e.g.
// "seed=2,drop=0.01,corrupt=0.001,delayp=0.05,delay=300ns,down=6-7@0:50us,storm=6@0:5us,stall=7@1us:2us".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return faults.Parse(spec) }

// BulkSpec is the parsed -bulk flag: burst-geometry overrides for the
// bulk data plane (cache lines per data frame, data frames per burst).
// The zero value overrides nothing; String renders exactly what
// ParseBulkSpec reads, so a tuning can be logged and replayed verbatim.
type BulkSpec = params.BulkSpec

// ParseBulkSpec reads the CLI -bulk syntax: "on" (the defaults) or
// "frame=16,maxframes=256".
func ParseBulkSpec(spec string) (BulkSpec, error) { return params.ParseBulk(spec) }

// LinkLatSpec is the parsed -linklat flag: per-axis and per-edge mesh
// link traversal latencies. The zero value overrides nothing (every
// edge at the calibrated hop latency); String renders exactly what
// ParseLinkLatSpec reads.
type LinkLatSpec = params.LinkLatSpec

// ParseLinkLatSpec reads the CLI -linklat syntax, e.g.
// "x=100ns,y=140ns,edge=1.0-2.0:250ns".
func ParseLinkLatSpec(spec string) (LinkLatSpec, error) { return params.ParseLinkLat(spec) }

// MachineFlags holds the raw values of the machine flags both CLIs
// share: -mesh WxH, -shards N, and the -linklat, -faults and -bulk
// specs.
type MachineFlags struct {
	Mesh    string
	Shards  int
	LinkLat string
	Faults  string
	Bulk    string
}

// Apply parses the flags and writes what each one sets into cfg; an
// empty spec or a zero shard count leaves its fields as they are. A bad
// spec returns its parser's error with cfg untouched. The result is not
// validated: New and RunExperiment do that.
func (f MachineFlags) Apply(cfg *Config) error {
	w, h, err := ParseMesh(f.Mesh)
	if err != nil {
		return err
	}
	ll, err := ParseLinkLatSpec(f.LinkLat)
	if err != nil {
		return err
	}
	plan, err := ParseFaultPlan(f.Faults)
	if err != nil {
		return err
	}
	bulk, err := ParseBulkSpec(f.Bulk)
	if err != nil {
		return err
	}
	if w != 0 {
		cfg.MeshWidth, cfg.MeshHeight = w, h
	}
	if f.Shards != 0 {
		cfg.Shards = f.Shards
	}
	if !ll.Empty() {
		cfg.LinkLat = ll
	}
	if !plan.Empty() {
		cfg.Faults = plan
	}
	bulk.Apply(cfg)
	return nil
}

// ShardGateError is returned when a feature that only runs on the
// single-shard engine is used with Shards > 1: the HT-over-Ethernet
// fabric when the configuration is validated, a bulk burst when it is
// issued. Detect it with errors.As.
type ShardGateError = params.ShardGateError

// ParseMesh reads the CLI -mesh syntax "WxH" (e.g. "16x16") and returns
// the dimensions. An empty spec returns (0, 0): keep the calibrated
// default.
func ParseMesh(spec string) (w, h int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	i := strings.IndexByte(spec, 'x')
	if i < 0 {
		return 0, 0, fmt.Errorf("ncdsm: mesh spec %q is not WxH (e.g. 16x16)", spec)
	}
	w, errW := strconv.Atoi(spec[:i])
	h, errH := strconv.Atoi(spec[i+1:])
	if errW != nil || errH != nil || w < 2 || h < 2 {
		return 0, 0, fmt.Errorf("ncdsm: mesh spec %q must be WxH with both dimensions >= 2", spec)
	}
	return w, h, nil
}

// UnreachableError is the typed failure a request ends with when its
// destination stays unreachable past the retransmit budget. Only timed
// accesses under a fault plan can observe it.
type UnreachableError = rmc.UnreachableError

// Placement selects how a growing region chooses donor nodes.
type Placement = memdir.Policy

// Placement policies.
const (
	// PlacementMostFree borrows from the node with the most free pooled
	// memory (spreads load).
	PlacementMostFree = memdir.MostFree
	// PlacementNearest borrows from the closest node with enough memory
	// (minimizes access latency).
	PlacementNearest = memdir.Nearest
)

// System is an assembled cluster: hardware, per-node OS agents, and the
// free-memory directory.
type System struct {
	inner *core.System
}

// New builds a system from a configuration.
func New(cfg Config) (*System, error) {
	s, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &System{inner: s}, nil
}

// Config returns the system's calibration.
func (s *System) Config() Config { return s.inner.Params() }

// Nodes returns the cluster's node count.
func (s *System) Nodes() int { return s.inner.Cluster().Nodes() }

// PoolFree returns the free bytes remaining in the cluster-wide pool.
func (s *System) PoolFree() uint64 { return s.inner.Directory().TotalFree() }

// Region returns the memory region anchored at a node (one per node,
// created on first use). See Region for what it can do.
func (s *System) Region(n NodeID) (*Region, error) {
	r, err := s.inner.Region(n)
	if err != nil {
		return nil, err
	}
	return &Region{inner: r, sys: s}, nil
}

// Run advances the simulation until all scheduled work completes and
// returns the final simulated time. Timed accesses (Region.Access) only
// complete under Run.
func (s *System) Run() Time { return s.inner.Run() }

// Now returns the current simulated time — pass it as the issue time of
// accesses submitted after a previous Run.
func (s *System) Now() Time { return s.inner.Now() }

// Core returns the underlying core.System for advanced use (experiment
// drivers, direct cluster access). The internal API is not covered by
// this package's compatibility surface.
func (s *System) Core() *core.System { return s.inner }

// Snapshot is a point-in-time copy of every metric the system exposes:
// counters, gauges, and latency histograms covering the RMCs, the HNC
// framing layer, the mesh links, the caches, the DRAM controllers, and
// the event engine itself. Snapshots are plain values — safe to keep,
// compare, merge, and render (JSON, Prometheus) after the system is
// gone. Family names are the ncdsm_* constants in internal/metrics.
type Snapshot = metrics.Snapshot

// NodeMetrics is a per-node rollup extracted from a Snapshot.
type NodeMetrics = metrics.NodeView

// LinkMetrics is a per-link (from, to, class) rollup extracted from a
// Snapshot.
type LinkMetrics = metrics.LinkView

// Metrics captures a snapshot of the system's metrics registry. Every
// instrument is sampled lazily at snapshot time, so calling it after
// Run reflects the whole simulation; snapshots taken from the same
// sequence of operations are byte-identical run to run.
func (s *System) Metrics() Snapshot { return s.inner.Registry().Snapshot() }

// MemoryMap writes a node's view of the cluster memory map (the paper's
// Figure 3) to w.
func (s *System) MemoryMap(n NodeID, w io.Writer) error {
	node, err := s.inner.Cluster().Node(n)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, node.MemMap().String())
	return err
}

// Region is one node's coherency domain plus the memory it aggregates.
type Region struct {
	inner *core.Region
	sys   *System
}

// Node returns the region's anchor node.
func (r *Region) Node() NodeID { return r.inner.Node() }

// SetPlacement selects the donor policy for implicit growth.
func (r *Region) SetPlacement(p Placement) { r.inner.Policy = p }

// SetDonors pins implicit growth to an explicit donor list, in order.
func (r *Region) SetDonors(donors ...NodeID) { r.inner.Donors = donors }

// Malloc allocates size bytes in the region's heap — locally while the
// node's private memory lasts, then transparently from remote nodes via
// the reservation protocol, exactly like the paper's interposed malloc.
func (r *Region) Malloc(size uint64) (Pointer, error) { return r.inner.Malloc(size) }

// Free releases a Malloc allocation.
func (r *Region) Free(p Pointer) error { return r.inner.Free(p) }

// Trim returns idle heap arenas to their owners: local frames to the
// node's private zone, borrowed frames to their donors' pools. This is
// the hot-remove flow — a region shrinks when a phase's peak passes.
func (r *Region) Trim() (uint64, error) { return r.inner.Trim() }

// Grow explicitly borrows size bytes from a donor chosen by the
// placement policy and maps them, returning the virtual base and the
// donor node.
func (r *Region) Grow(size uint64) (Pointer, NodeID, error) {
	rng, err := r.inner.Grow(size)
	if err != nil {
		return 0, 0, err
	}
	base, err := r.inner.MapBorrowed(rng)
	if err != nil {
		return 0, 0, err
	}
	return base, rng.Node(), nil
}

// GrowFrom is Grow with an explicit donor.
func (r *Region) GrowFrom(donor NodeID, size uint64) (Pointer, error) {
	rng, err := r.inner.GrowFrom(donor, size)
	if err != nil {
		return 0, err
	}
	return r.inner.MapBorrowed(rng)
}

// BorrowedBytes reports how much remote memory the region holds.
func (r *Region) BorrowedBytes() uint64 { return r.inner.Agent().BorrowedBytes() }

// EffectiveMemory reports the memory a process in this region can use:
// the node's private memory plus all borrowings.
func (r *Region) EffectiveMemory() uint64 { return r.inner.Agent().EffectiveMemory() }

// Write stores data at a pointer (functional path; crosses nodes
// transparently).
func (r *Region) Write(p Pointer, data []byte) error { return r.inner.Write(p, data) }

// Read loads len(buf) bytes at a pointer (functional path).
func (r *Region) Read(p Pointer, buf []byte) error { return r.inner.Read(p, buf) }

// WriteUint64 stores a word.
func (r *Region) WriteUint64(p Pointer, v uint64) error { return r.inner.WriteUint64(p, v) }

// ReadUint64 loads a word.
func (r *Region) ReadUint64(p Pointer) (uint64, error) { return r.inner.ReadUint64(p) }

// AccessRequest describes one timed load or store. The zero value of
// every field but Pointer is meaningful: issue at time 0, from core 0,
// a read, with no completion callback.
type AccessRequest struct {
	// Now is the simulated issue time (use System.Now after a Run).
	Now Time
	// Core is the issuing core on the region's anchor node.
	Core int
	// Pointer is the virtual address to access.
	Pointer Pointer
	// Write selects a store; the default is a load.
	Write bool
	// Done, if set, fires at the simulated completion time once
	// System.Run executes.
	Done func(Time)
}

// Access issues one timed access through the full simulated memory path
// (page table, cache hierarchy, memory map, RMC, mesh). It is AccessBatch of one —
// the batch path is the only code path.
func (r *Region) Access(req AccessRequest) error {
	batch := [1]AccessRequest{req}
	return r.AccessBatch(batch[:])
}

// AccessBatch issues a batch of timed accesses in order. Each request
// keeps its own completion callback; the batch is the paper's access
// discipline stated honestly — a workload hands the memory system its
// whole access list and lets the windows and queues pipeline it, rather
// than metering requests one call at a time. Line-granular cached
// accesses go through the cache hierarchy exactly as single Access
// calls always did; use ReadBulk/WriteBulk/Copy when the workload moves
// ranges, not lines.
func (r *Region) AccessBatch(reqs []AccessRequest) error {
	for i := range reqs {
		done := reqs[i].Done
		if done == nil {
			done = nopAccessDone
		}
		if err := r.inner.Access(reqs[i].Now, reqs[i].Core, reqs[i].Pointer, reqs[i].Write, done); err != nil {
			return fmt.Errorf("ncdsm: batch access %d: %w", i, err)
		}
	}
	return nil
}

// nopAccessDone keeps callback-less accesses allocation-free.
func nopAccessDone(Time) {}

// Span selects one byte range of a bulk operation at a line-aligned
// offset from the operation's base pointer — the columnar shape: one
// span per segment of a projected column, one operation per scan.
type Span = core.Span

// BulkDone observes a bulk operation's completion: the simulated time
// its last burst drained, and the first failure (only possible under a
// fault plan) if any burst was abandoned.
type BulkDone = func(Time, error)

// ReadBulk issues one timed scatter-gather read of the spans (relative
// to p) into buf, as doorbell-batched RMC bursts — one descriptor per
// owning node carrying all of that node's line ranges, serviced as a
// pipelined burst. The gathered bytes land in buf when System.Run
// drains the operation; ownership of buf transfers to the operation
// until then (callers must not touch it in between). Pass a BulkDone to
// observe the completion time.
//
// Bulk transfers bypass the coherent caches — they are DMA, not loads:
// flush first (BeginParallelRead) if cached copies may be dirty.
func (r *Region) ReadBulk(p Pointer, spans []Span, buf []byte, done ...BulkDone) error {
	return r.inner.ReadBulk(r.sys.Now(), p, spans, buf, bulkDone(done))
}

// WriteBulk issues one timed scatter-gather write: data (span order,
// exactly covering the spans) reaches the owning nodes' memory when
// System.Run drains the operation. Ownership of data transfers to the
// operation until it completes; the buffer is never recycled into
// internal pools, so it returns to the caller intact.
func (r *Region) WriteBulk(p Pointer, spans []Span, data []byte, done ...BulkDone) error {
	return r.inner.WriteBulk(r.sys.Now(), p, spans, data, bulkDone(done))
}

// Copy issues one timed region-to-region copy of n bytes from src to
// dst (both line-aligned, n a line multiple). Pieces whose source and
// destination both live on remote nodes move server-to-server over the
// fabric — the bytes never transit this node.
func (r *Region) Copy(dst, src Pointer, n uint64, done ...BulkDone) error {
	return r.inner.CopyBulk(r.sys.Now(), dst, src, n, bulkDone(done))
}

// bulkDone folds the optional completion observers into one callback.
func bulkDone(done []BulkDone) func(Time, error) {
	switch len(done) {
	case 0:
		return nopBulkDone
	case 1:
		return done[0]
	default:
		return func(t Time, err error) {
			for _, d := range done {
				d(t, err)
			}
		}
	}
}

func nopBulkDone(Time, error) {}

// BeginParallelRead flushes the node's caches and enters the read-only
// parallel phase of paper Section IV-B: any core may then read remote
// data safely with no inter-node coherency, but writes are rejected
// until BeginSerial. Returns the number of dirty lines flushed.
func (r *Region) BeginParallelRead() int {
	return r.inner.BeginParallelRead(r.sys.Now())
}

// BeginSerial returns to the single-writer phase, bound to coreID.
func (r *Region) BeginSerial(coreID int) { r.inner.BeginSerial(coreID) }

// Owner reports which node physically holds the byte behind a pointer.
func (r *Region) Owner(p Pointer) (NodeID, error) {
	pa, err := r.inner.Translate(p)
	if err != nil {
		return 0, err
	}
	if pa.Canonical(r.Node()).IsLocal() {
		return r.Node(), nil
	}
	return pa.Node(), nil
}

// ExperimentOptions configures an experiment run: the embedded Config
// is the machine every simulated point builds, and the other fields say
// how the harness drives it. Use DefaultExperimentOptions and override
// fields; the zero value is invalid (its Config fails Validate, and
// Scale must be positive and finite — there is no sentinel). The
// promoted Validate checks the Config alone; RunExperiment checks both.
type ExperimentOptions struct {
	// Config is the calibration of every simulated point: mesh size,
	// shard count, link latencies, fault plan, burst geometry and every
	// timing. Results are byte-identical at every Shards setting, and a
	// fault plan binds to each sweep point's own injector stream, so
	// merged figures and metrics are byte-identical at every Parallel
	// setting too.
	Config
	// Scale multiplies workload sizes; 1.0 reproduces the paper-sized
	// runs, small fractions finish in seconds. Must be positive and
	// finite.
	Scale float64
	// Parallel bounds how many sweep points simulate concurrently: 0
	// means all cores, 1 is fully serial. Results — figures and metrics
	// alike — are byte-identical at every setting.
	Parallel int
	// Seed varies the deterministic workload inputs. It is used as
	// given, 0 included; DefaultExperimentOptions sets 1.
	Seed int64
}

// DefaultExperimentOptions returns the prototype machine at paper
// scale, on all cores.
func DefaultExperimentOptions() ExperimentOptions {
	return ExperimentOptions{Config: DefaultConfig(), Scale: 1.0, Parallel: 0, Seed: 1}
}

// RunExperiment regenerates one of the paper's tables/figures ("table1",
// "fig6".."fig11", "eq", ablations "A".."I", "scale") and returns both
// its figure and the merged metrics snapshot of every simulation the
// generator ran. Snapshots are folded in sweep submission order, so the
// result is byte-identical at every Parallel setting. Macro-layer
// experiments (fig9–fig11, "eq", "G") run no event-driven simulations
// and return an empty snapshot. The options are validated (Scale and
// the Config) before anything runs.
func RunExperiment(id string, opts ExperimentOptions) (*stats.Figure, Snapshot, error) {
	gen, err := experiments.Lookup(id)
	if err != nil {
		return nil, Snapshot{}, err
	}
	var merged metrics.Merged
	fig, err := gen(experiments.Options{
		P: opts.Config, Scale: opts.Scale, Parallel: opts.Parallel, Seed: opts.Seed, Metrics: &merged,
	})
	if err != nil {
		return nil, Snapshot{}, err
	}
	return fig, merged.Snapshot(), nil
}

// Experiments lists the available experiment identifiers in order.
func Experiments() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ---- consistency laboratory ----

// ConsistencyVerdict is the checker's judgment of one recorded history:
// whether it is sequentially consistent (some interleaving of the
// per-node program orders explains every read) and per-location
// linearizable (every read returns the newest write at issue time).
type ConsistencyVerdict = consistency.Verdict

// LitmusOutcome is one (litmus test, protocol) result: the recorded
// history, its verdict, and whether it matches the protocol's expected
// verdict.
type LitmusOutcome = consistency.LitmusResult

// ConsistencyProtocols lists the consistency-lab protocol names in
// presentation order: "msi" (directory MSI, sequential consistency),
// "mesi" (MSI plus an exclusive state with silent E→M upgrades, same
// model), "rmc" (the paper's non-coherent posted-write mode, TSO), and
// "rc" (release consistency).
func ConsistencyProtocols() []string { return consistency.Names() }

// Litmus runs the seeded litmus suite (store buffering, message
// passing with and without acquire, IRIW, coherence read-read) under
// the named protocols — all of them when none are given — and returns
// every outcome in suite × protocol order. Outcomes are deterministic:
// fixed programs, fixed schedules, pure protocol state machines.
func Litmus(cfg Config, protocols ...string) ([]LitmusOutcome, error) {
	return consistency.RunSuite(cfg, protocols)
}

// LitmusReport runs the litmus suite and renders a text table of
// verdicts, flagging any outcome that deviates from its protocol's
// expectation.
func LitmusReport(cfg Config, protocols ...string) (string, error) {
	results, err := Litmus(cfg, protocols...)
	if err != nil {
		return "", err
	}
	var b []byte
	b = fmt.Appendf(b, "%-12s %-5s %-22s %-22s %s\n", "test", "proto", "verdict", "expected", "match")
	for _, r := range results {
		exp := consistency.Verdict{SC: r.Expected.SC, PerLoc: r.Expected.PerLoc}
		mark := "ok"
		if !r.Match {
			mark = "MISMATCH"
		}
		b = fmt.Appendf(b, "%-12s %-5s %-22s %-22s %s\n", r.Test, r.Protocol, r.Verdict.Summary(), exp.Summary(), mark)
	}
	return string(b), nil
}

// ExploreSpec configures the schedule-exploration model checker:
// exhaustive enumeration up to MaxDepth total instructions (with a
// sleep-set reduction), seeded sampling of Samples schedules beyond,
// sharded across Parallel workers with an order-identical merge.
type ExploreSpec = consistency.ExploreSpec

// ExploreOutcome summarizes the exploration of one (litmus test,
// protocol) pair: schedule counts, per-checker violation counts, and
// the lexicographically minimal violating schedule per category.
type ExploreOutcome = consistency.ExploreResult

// DefaultExploreSpec is the explorer's default budget: exhaustive up to
// 6 instructions, 500 sampled schedules beyond, seed 1, serial.
func DefaultExploreSpec() ExploreSpec { return consistency.DefaultExploreSpec() }

// Explore runs the schedule-exploration model checker over the litmus
// suite under the named protocols (all of them when none are given).
// Unlike Litmus — one seeded schedule per test — exploration asks the
// existential question: does ANY interleaving within the budget violate
// the protocol's consistency model or its internal invariants? Output
// is deterministic: same spec and seed, byte-identical results at any
// Parallel setting.
func Explore(cfg Config, spec ExploreSpec, protocols ...string) ([]ExploreOutcome, error) {
	return consistency.ExploreLitmus(cfg, protocols, spec)
}

// ExploreReport runs Explore and renders a text table — one row per
// (test, protocol) — followed by the minimal violating trace of every
// result whose violations indict the protocol implementation (any
// violation on a sequentially consistent protocol; invariant failures
// or undecided searches on any protocol).
func ExploreReport(cfg Config, spec ExploreSpec, protocols ...string) (string, int, error) {
	results, err := Explore(cfg, spec, protocols...)
	if err != nil {
		return "", 0, err
	}
	var b []byte
	b = fmt.Appendf(b, "%-12s %-5s %-10s %9s %7s %7s %7s %9s\n",
		"test", "proto", "coverage", "schedules", "scfail", "perloc", "invar", "undecided")
	problems := 0
	for _, r := range results {
		cov := "sampled"
		if r.Exhaustive {
			cov = "exhaustive"
		}
		b = fmt.Appendf(b, "%-12s %-5s %-10s %9d %7d %7d %7d %9d\n",
			r.Test, r.Protocol, cov, r.Schedules, r.SCFails, r.PerLocFails, r.InvariantFails, r.Undecided)
	}
	for _, r := range results {
		probs := r.Problems()
		if len(probs) == 0 {
			continue
		}
		problems += len(probs)
		b = fmt.Appendf(b, "\n%s/%s PROBLEMS:\n", r.Test, r.Protocol)
		for _, p := range probs {
			b = fmt.Appendf(b, "  - %s\n", p)
		}
		if v := r.FirstViolation(); v != nil {
			b = fmt.Appendf(b, "  minimal violating %s", v.Trace())
		}
	}
	return string(b), problems, nil
}

// LitmusTrace renders a litmus outcome's schedule and history as the
// replayable trace an operator needs when a verdict deviates: feed the
// schedule back to the same test and protocol and the identical history
// returns.
func LitmusTrace(r LitmusOutcome) string {
	o := consistency.ScheduleOutcome{Schedule: r.Schedule, Verdict: r.Verdict, History: r.History}
	return o.Trace()
}

// Validate checks a configuration without building a system.
func Validate(cfg Config) error { return cfg.Validate() }

// Describe returns a one-paragraph summary of the system a config
// builds, for CLI banners.
func Describe(cfg Config) string {
	return fmt.Sprintf("%d-node %dx%d mesh, %d cores and %d GB per node, %d GB pooled (%d GB cluster pool), remote round trip %.2f µs at 1 hop",
		cfg.Nodes(), cfg.MeshWidth, cfg.MeshHeight, cfg.CoresPerNode,
		cfg.MemPerNode>>30, cfg.PooledMemPerNode()>>30, cfg.PoolSize()>>30,
		float64(cfg.RemoteRoundTrip(1))/float64(params.Microsecond))
}
