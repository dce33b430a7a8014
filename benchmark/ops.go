package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/addr"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/memmodel"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// A workload builds one op from the layers' public functions — the calls
// the experiment generators make — and times its setup and run phases
// from outside the program.
type workload struct {
	name string
	// shards is the shard count the workload runs at; a workload with
	// more than one also gets a single-shard op in traced runs.
	shards int
	run    func(c opConfig, tr *tracer) (*outcome, error)
}

var allWorkloads = []workload{
	{name: "fabric32", shards: 2, run: runFabric},
	{name: "node4_rw", shards: 1, run: func(c opConfig, tr *tracer) (*outcome, error) { return runNode4(c, tr, false) }},
	{name: "node4_faulted", shards: 1, run: func(c opConfig, tr *tracer) (*outcome, error) { return runNode4(c, tr, true) }},
	{name: "btree_swap", shards: 1, run: runBtree},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opConfig is everything one op depends on.
type opConfig struct {
	workload string
	seed     int64
	// scale multiplies every input size; 1 is the committed size.
	scale float64
	// shards is the shard count; 0 selects the workload's own.
	shards int
	trace  bool
}

// scaled applies the scale to a base count with a floor, exactly as the
// experiment generators scale theirs.
func scaled(base, floor int, scale float64) int {
	return max(int(float64(base)*scale), floor)
}

// outcome is what one op produced: its phase times and everything the
// sim digest covers.
type outcome struct {
	setup, run time.Duration
	// accesses counts simulated memory accesses completed (micro) or
	// priced (macro).
	accesses uint64
	// record holds the op's simulated results, one line each.
	record []string
	snap   *metrics.Snapshot
	sys    *core.System

	// Figure values the equivalence tests compare against the
	// experiment generators: micro completion time and mean access
	// latency (picoseconds), macro per-(fanout, accessor) search totals.
	elapsed     sim.Time
	meanLatency float64
	searches    map[string]params.Duration
}

func (o *outcome) addf(format string, args ...any) {
	o.record = append(o.record, fmt.Sprintf(format, args...))
}

// digest is the SHA-256 of the op's simulated results: final simulated
// time, per-thread counts, finish times and latencies, and the metrics
// snapshot without the shard-schedule families (micro), or the priced
// totals (macro). A change meant only for speed leaves it unchanged.
func (o *outcome) digest() string {
	h := sha256.New()
	for _, line := range o.record {
		fmt.Fprintln(h, line)
	}
	if o.snap != nil {
		h.Write([]byte(withoutShardSchedule(*o.snap).JSON()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// withoutShardSchedule drops the families that describe the sharded
// engine's barrier schedule, the only ones that depend on shard count.
func withoutShardSchedule(s metrics.Snapshot) metrics.Snapshot {
	var kept metrics.Snapshot
	for _, f := range s.Families {
		if !strings.HasPrefix(f.Name, metrics.ShardScheduleFamilyPrefix) {
			kept.Families = append(kept.Families, f)
		}
	}
	return kept
}

// ---- micro layer: the event-driven cluster ----

// client is one thread of random loads and stores.
type client struct {
	name      string
	node      addr.NodeID
	core      int
	seed      int64
	ranges    []addr.Range
	count     int
	writeFrac float64
}

// runMicro builds a system, lets plan reserve memory and name the
// client threads, launches them, runs the simulation to completion and
// then the optional post phase.
func runMicro(tr *tracer, p params.Params, plan func(*core.System) ([]client, error), post func(*core.System, *outcome) error) (*outcome, error) {
	o := &outcome{}
	start := time.Now()
	sp := tr.begin("core.new_system")
	sys, err := core.NewSystem(p)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	o.sys = sys
	sp = tr.begin("core.reserve")
	clients, err := plan(sys)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cpu.launch")
	threads := make([]*cpu.Thread, len(clients))
	for i, c := range clients {
		node, err := sys.Cluster().Node(c.node)
		if err != nil {
			return nil, err
		}
		stream, err := workloads.RandomStream(c.seed, c.ranges, c.count, c.writeFrac)
		if err != nil {
			return nil, err
		}
		var mem cpu.MemorySystem = node
		stream, mem = tr.wrapThread(stream, mem)
		th, err := cpu.NewThread(cpu.ThreadConfig{
			Name:         c.name,
			Engine:       node.Engine(),
			Memory:       mem,
			Stream:       stream,
			Core:         c.core,
			WindowLocal:  p.LocalOutstanding,
			WindowRemote: p.RemoteOutstanding,
		})
		if err != nil {
			return nil, err
		}
		th.Start(0)
		threads[i] = th
	}
	tr.end(sp)
	o.setup = time.Since(start)

	start = time.Now()
	sp = tr.begin("sim.run")
	sys.Run()
	tr.endThreads(sp)
	var latSum float64
	var latN uint64
	for i, th := range threads {
		if !th.Done {
			return nil, fmt.Errorf("thread %s did not finish", th.Name)
		}
		if th.Issued != uint64(clients[i].count) {
			return nil, fmt.Errorf("thread %s completed %d of %d accesses", th.Name, th.Issued, clients[i].count)
		}
		o.accesses += th.Issued
		o.elapsed = max(o.elapsed, th.FinishTime)
		latSum += th.Latency.Mean() * float64(th.Latency.N())
		latN += th.Latency.N()
		o.addf("%s issued=%d finish=%d latmean=%v latn=%d", th.Name, th.Issued, th.FinishTime, th.Latency.Mean(), th.Latency.N())
	}
	if latN > 0 {
		o.meanLatency = latSum / float64(latN)
	}
	var abandoned uint64
	for id := 1; id <= sys.Cluster().Nodes(); id++ {
		abandoned += sys.Cluster().MustNode(addr.NodeID(id)).AbandonedOps
	}
	if abandoned > 0 && p.Faults.Empty() {
		return nil, fmt.Errorf("%d accesses abandoned without a fault plan", abandoned)
	}
	o.addf("abandoned=%d", abandoned)
	if post != nil {
		sp = tr.begin("core.bulk")
		err := post(sys, o)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	o.addf("now=%d", sys.Now())
	o.run = time.Since(start)

	sp = tr.begin("metrics.snapshot")
	snap := sys.Registry().Snapshot()
	tr.end(sp)
	o.snap = &snap
	return o, nil
}

// fabricSide is the mesh side at a scale: 32 at full size, shrinking
// with the square root of the scale so node count tracks it.
func fabricSide(scale float64) int {
	return max(4, int(32*math.Sqrt(scale))&^1)
}

// fabricPerThread is the loads per thread at scale 1, sized so one op
// takes about two seconds on a 2-CPU host.
const fabricPerThread = 80

// runFabric is the scale experiment's whole-fabric load on a 32×32 mesh
// with two shards: every node runs two threads of uniform random loads
// against its point reflection.
func runFabric(c opConfig, tr *tracer) (*outcome, error) {
	side := fabricSide(c.scale)
	return fabricOp(tr, side, c.shards, c.seed, 2, scaled(fabricPerThread, 2, c.scale))
}

// fabricOp builds the scale experiment's traffic (experiments.Scale):
// each node reserves 8 MiB on its point reflection through the mesh
// centre and runs threads of perThread random loads against it.
func fabricOp(tr *tracer, side, shards int, seed int64, threads, perThread int) (*outcome, error) {
	p := params.Default()
	p.MeshWidth, p.MeshHeight = side, side
	p.Shards = shards
	return runMicro(tr, p, func(sys *core.System) ([]client, error) {
		topo := sys.Cluster().Topology()
		var cs []client
		for id := 1; id <= topo.Nodes(); id++ {
			self := addr.NodeID(id)
			x, y := topo.Coord(self)
			partner := topo.NodeAt(topo.W-1-x, topo.H-1-y)
			if partner == self {
				continue
			}
			region, err := sys.Region(self)
			if err != nil {
				return nil, err
			}
			rng, err := region.GrowFrom(partner, 8<<20)
			if err != nil {
				return nil, err
			}
			for t := 0; t < threads; t++ {
				cs = append(cs, client{
					name:   fmt.Sprintf("n%d/t%d", self, t),
					node:   self,
					core:   t % p.CoresPerNode,
					seed:   seed + int64(id)*104729 + int64(t)*7919,
					ranges: []addr.Range{rng},
					count:  perThread,
				})
			}
		}
		return cs, nil
	}, nil)
}

// The node4 layout on the calibrated 4×4 mesh. Node 6 sits at (1,1), so
// four servers are one hop away: Fig 7's client. The six stressors share
// one server, as in Fig 8, and none of them is the Fig 7 client or one
// of its servers.
var (
	fig7Client   = addr.NodeID(6)
	fig7Servers  = []addr.NodeID{2, 5, 7, 10}
	sharedServer = addr.NodeID(11)
	stressors    = []addr.NodeID{1, 3, 4, 9, 13, 16}
)

// node4Plan is the fixed fault plan of node4_faulted. It takes down the
// link between the Fig 7 client and one of its servers, storms the
// client's RMC and stalls that server, over random drops, corruptions
// and delays everywhere.
const node4Plan = "seed=7,drop=0.01,corrupt=0.002,delayp=0.02,delay=300ns,down=2-6@0:50us,storm=6@20us:40us,stall=2@10us:60us"

// node4 sizes at scale 1: Fig 7 accesses split over the client's four
// threads, accesses per stressor thread, and bulk rounds. The stressors
// keep the shared server loaded for as long as the Fig 7 client runs,
// and one op takes about two seconds on a 2-CPU host.
const (
	node4Fig7Accesses   = 120000
	node4StressAccesses = 12000
	node4BulkRounds     = 80
	node4WriteFrac      = 0.3
	node4Reservation    = 64 << 20
)

// runNode4 runs the Fig 7 client against four one-hop servers and the
// Fig 8 stressors against one shared server at once, all with 30%
// stores, then a bulk phase from the Fig 7 client's region.
func runNode4(c opConfig, tr *tracer, faulted bool) (*outcome, error) {
	p := params.Default()
	p.Shards = c.shards
	if faulted {
		plan, err := faults.Parse(node4Plan)
		if err != nil {
			return nil, err
		}
		p.Faults = plan
	}
	perFig7 := scaled(node4Fig7Accesses, 400, c.scale) / 4
	perStress := scaled(node4StressAccesses, 50, c.scale)
	var region *core.Region
	var bulkA, bulkB vm.Virt
	plan := func(sys *core.System) ([]client, error) {
		var err error
		region, err = sys.Region(fig7Client)
		if err != nil {
			return nil, err
		}
		var ranges []addr.Range
		for _, s := range fig7Servers {
			rng, err := region.GrowFrom(s, node4Reservation)
			if err != nil {
				return nil, err
			}
			ranges = append(ranges, rng)
		}
		var cs []client
		for t := 0; t < 4; t++ {
			cs = append(cs, client{
				name: fmt.Sprintf("n%d/t%d", fig7Client, t), node: fig7Client, core: t % p.CoresPerNode,
				seed: c.seed + int64(t)*7919, ranges: ranges, count: perFig7, writeFrac: node4WriteFrac,
			})
		}
		for n, s := range stressors {
			r, err := sys.Region(s)
			if err != nil {
				return nil, err
			}
			rng, err := r.GrowFrom(sharedServer, node4Reservation)
			if err != nil {
				return nil, err
			}
			for t := 0; t < 4; t++ {
				cs = append(cs, client{
					name: fmt.Sprintf("n%d/t%d", s, t), node: s, core: t % p.CoresPerNode,
					seed: c.seed + int64(100*(n+1)) + int64(t)*7919, ranges: []addr.Range{rng},
					count: perStress, writeFrac: node4WriteFrac,
				})
			}
		}
		if bulkA, err = region.MapBorrowed(ranges[0]); err != nil {
			return nil, err
		}
		bulkB, err = region.MapBorrowed(ranges[1])
		return cs, err
	}
	post := func(sys *core.System, o *outcome) error {
		return bulkPhase(sys, region, bulkA, bulkB, c.seed, scaled(node4BulkRounds, 1, c.scale), o)
	}
	return runMicro(tr, p, plan, post)
}

// bulkPhase runs rounds of write, copy and read-back bursts of 4 to
// 64 KiB between two remote reservations, one operation at a time, and
// checks that every read returns the bytes written.
func bulkPhase(sys *core.System, region *core.Region, a, b vm.Virt, seed int64, rounds int, o *outcome) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	offset := func(size int) vm.Virt {
		return vm.Virt(rng.Int63n(int64(node4Reservation-size)/params.CacheLineSize) * params.CacheLineSize)
	}
	// await issues one bulk operation at the current simulated time and
	// runs the simulation until it completes.
	await := func(issue func(now sim.Time, done func(sim.Time, error)) error) (sim.Time, error) {
		var at sim.Time
		var opErr error
		fired := false
		if err := issue(sys.Now(), func(t sim.Time, err error) { at, opErr, fired = t, err, true }); err != nil {
			return 0, err
		}
		sys.Run()
		if !fired {
			return 0, fmt.Errorf("bulk operation did not complete")
		}
		return at, opErr
	}
	for r := 0; r < rounds; r++ {
		for _, size := range []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10} {
			src, dst := a+offset(size), b+offset(size)
			data := make([]byte, size)
			rng.Read(data)
			span := []core.Span{{Offset: 0, Bytes: uint64(size)}}
			tw, err := await(func(now sim.Time, done func(sim.Time, error)) error {
				return region.WriteBulk(now, src, span, data, done)
			})
			if err != nil {
				return fmt.Errorf("bulk write: %w", err)
			}
			tc, err := await(func(now sim.Time, done func(sim.Time, error)) error {
				return region.CopyBulk(now, dst, src, uint64(size), done)
			})
			if err != nil {
				return fmt.Errorf("bulk copy: %w", err)
			}
			got := make([]byte, size)
			trd, err := await(func(now sim.Time, done func(sim.Time, error)) error {
				return region.ReadBulk(now, dst, span, got, done)
			})
			if err != nil {
				return fmt.Errorf("bulk read: %w", err)
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("bulk read of %d copied bytes returned other data", size)
			}
			o.accesses += 3 * uint64(size) / params.CacheLineSize
			o.addf("bulk size=%d write=%d copy=%d read=%d", size, tw, tc, trd)
		}
	}
	return nil
}

// ---- macro layer: the pricing models ----

var btreeFanouts = []int{8, 168, 1024}

// btreeSizes gives the key count, probe count and swap residency budget
// at a scale. Keys and probes are a fifth of Fig 9's 10M and 500k, so
// one op takes about two seconds on a 2-CPU host; the residency, and
// with it Fig 11's kernels, stays at the paper's size. Floors and
// rounding are Fig 9's.
func btreeSizes(scale float64) (keys, probes, resident int) {
	return scaled(2_000_000, 20_000, scale), scaled(100_000, 1_000, scale), btreeResidency(scale)
}

// btreeResidency scales the swap residency budget as Fig 9 and Fig 11 do.
func btreeResidency(scale float64) int {
	return max(int(float64(params.Default().SwapResidentPages)*scale), 64)
}

// drawKeys draws Fig 9's population — n distinct keys over [0, 4n) — and
// a membership bitset to check search results against.
func drawKeys(seed int64, n int) (keys, member []uint64) {
	rng := rand.New(rand.NewSource(seed))
	keys = make([]uint64, 0, n)
	member = make([]uint64, (4*n+63)/64)
	for len(keys) < n {
		k := uint64(rng.Int63n(int64(n) * 4))
		if member[k/64]&(1<<(k%64)) == 0 {
			member[k/64] |= 1 << (k % 64)
			keys = append(keys, k)
		}
	}
	return keys, member
}

// runBtree is the macro layer alone: B-trees at three fanouts searched
// under remote swap and remote memory (Figs 9/10), then Fig 11's kernels
// under remote swap and under a line-cached region layout.
func runBtree(c opConfig, tr *tracer) (*outcome, error) {
	keys, probes, resident := btreeSizes(c.scale)
	return btreeOp(tr, c.seed, keys, probes, resident)
}

func btreeOp(tr *tracer, seed int64, nKeys, nProbes, resident int) (*outcome, error) {
	o := &outcome{searches: map[string]params.Duration{}}
	p := params.Default()
	p.SwapResidentPages = resident

	start := time.Now()
	sp := tr.begin("btree.draw_keys")
	keys, member := drawKeys(seed, nKeys)
	slices.Sort(keys)
	probeRng := rand.New(rand.NewSource(seed + 1))
	probes := make([]uint64, nProbes)
	for i := range probes {
		probes[i] = uint64(probeRng.Int63n(int64(nKeys) * 4))
	}
	tr.end(sp)
	o.setup = time.Since(start)

	for _, fanout := range btreeFanouts {
		start = time.Now()
		sp = tr.begin("btree.build")
		tree, err := btree.New(fanout)
		if err == nil {
			err = tree.BulkLoad(keys)
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		o.setup += time.Since(start)

		start = time.Now()
		sw, err := memmodel.NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, resident)
		if err != nil {
			return nil, err
		}
		for _, acc := range []memmodel.Accessor{sw, memmodel.Remote{P: p, Hops: 1}} {
			sp = tr.begin("btree.search")
			total, accesses, hits, err := searchAll(tree, probes, member, tr.wrapAccessor(acc))
			tr.endAccessor(sp)
			if err != nil {
				return nil, err
			}
			o.accesses += accesses
			o.searches[fmt.Sprintf("%d/%s", fanout, acc.Name())] = total
			o.addf("fanout=%d %s total=%d accesses=%d hits=%d", fanout, acc.Name(), total, accesses, hits)
		}
		o.run += time.Since(start)
	}

	start = time.Now()
	for _, k := range workloads.ParsecSuite(p) {
		swapped, err := memmodel.Build(memmodel.ConfigRemoteSwap, p, 1, resident)
		if err != nil {
			return nil, err
		}
		layout, err := prototypeLayout(p, k.Footprint)
		if err != nil {
			return nil, err
		}
		for _, base := range []memmodel.Accessor{swapped, layout} {
			acc, err := memmodel.NewLineCached(base, p, memmodel.DefaultCacheLines)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("workloads.kernel")
			res := k.Run(tr.wrapAccessor(acc), seed)
			tr.endAccessor(sp)
			o.accesses += res.Accesses
			o.addf("%s/%s mem=%d comp=%d accesses=%d", k.Name, base.Name(), res.MemTime, res.CompTime, res.Accesses)
		}
	}
	o.run += time.Since(start)
	return o, nil
}

// searchAll prices every probe through the batched search path and
// checks each answer against the key set.
func searchAll(tree *btree.Tree, probes, member []uint64, acc memmodel.Accessor) (total params.Duration, accesses uint64, hits int, err error) {
	var b memmodel.Batcher
	for _, k := range probes {
		found, cost, n := tree.SearchBatch(k, acc, &b)
		if found != (member[k/64]&(1<<(k%64)) != 0) {
			return 0, 0, 0, fmt.Errorf("search for key %d returned found=%v", k, found)
		}
		total += cost
		accesses += n
		if found {
			hits++
		}
	}
	return total, accesses, hits, nil
}

// prototypeLayout prices a footprint the way core.Region.Accessor prices
// a region that filled its local budget and spilled evenly onto three
// donors one, two and three hops away.
func prototypeLayout(p params.Params, footprint uint64) (*memmodel.Striped, error) {
	local := min(footprint, workloads.ScaleRef(p))
	stripes := []memmodel.Stripe{{Start: 0, Size: local, Acc: memmodel.Local{P: p}}}
	rest := footprint - local
	third := rest / 3 / params.PageSize * params.PageSize
	for hops, at := 1, local; hops <= 3 && at < footprint; hops++ {
		size := third
		if hops == 3 || size == 0 {
			size = footprint - at
		}
		stripes = append(stripes, memmodel.Stripe{Start: at, Size: size, Acc: memmodel.Remote{P: p, Hops: hops}})
		at += size
	}
	return memmodel.NewStriped(p, stripes)
}
