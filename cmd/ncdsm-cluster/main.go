// Command ncdsm-cluster inspects the modeled machine: it prints the
// cluster memory map a node sees (the paper's Figure 3), walks through a
// remote reservation step by step (Figure 4), and shows a region layout
// after memory has moved between nodes (Figure 1).
//
// Usage:
//
//	ncdsm-cluster -memmap 1          # node 1's view of the address space
//	ncdsm-cluster -reserve 1:3:4GB   # node 1 reserves 4 GB on node 3
//	ncdsm-cluster -regions           # demo region layout across the cluster
//	ncdsm-cluster -stats -metrics prom   # workload + full metrics snapshot
//	ncdsm-cluster -consistency all   # litmus suite + checker verdicts per protocol
//	ncdsm-cluster -consistency all -explore exhaustive:6,sample:500:1   # schedule exploration
//	ncdsm-cluster -bulk on           # bulk data plane walkthrough (gather, scatter, DMA copy)
//	ncdsm-cluster -bulk frame=4,maxframes=64 -metrics prom
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/params"
	"repro/internal/workloads"

	ncdsmfacade "repro"
)

func main() {
	var (
		memmap     = flag.Int("memmap", 0, "print the memory map seen by this node")
		reserve    = flag.String("reserve", "", "walk a reservation: requester:donor:size (e.g. 1:3:4GB)")
		regions    = flag.Bool("regions", false, "demo a Figure 1 region layout")
		stats      = flag.Bool("stats", false, "run a sample workload and dump per-component utilization")
		metricsFmt = flag.String("metrics", "", "dump the system's metrics snapshot afterwards: prom or json")
		faultSpec  = flag.String("faults", "", "deterministic fault plan, e.g. seed=2,drop=0.01,down=6-7@0:50us")
		bulkSpec   = flag.String("bulk", "", "demo the bulk data plane with this burst geometry: on, or frame=16,maxframes=256")
		consist    = flag.String("consistency", "", "run the seeded litmus suite under protocols (msi, mesi, rmc, rc, a comma list, or all) and print checker verdicts")
		explore    = flag.String("explore", "", "with -consistency: explore schedules instead of one per test, e.g. exhaustive:6,sample:500:1")
		parallel   = flag.Int("parallel", 1, "worker count for -explore (0 = all cores); output is identical at any setting")
		meshSpec   = flag.String("mesh", "", "mesh fabric dimensions WxH, e.g. 16x16 (default: calibrated 4x4)")
		shards     = flag.Int("shards", 0, "concurrent PDES shards the mesh is partitioned into (0/1 = single shard; results are byte-identical at any count)")
		linkLat    = flag.String("linklat", "", "per-edge mesh link latencies, e.g. x=100ns,y=140ns,edge=1.0-2.0:250ns (default: uniform hop latency)")
	)
	flag.Parse()

	cfg := ncdsmfacade.DefaultConfig()
	machine := ncdsmfacade.MachineFlags{Mesh: *meshSpec, Shards: *shards, LinkLat: *linkLat, Faults: *faultSpec, Bulk: *bulkSpec}
	if err := machine.Apply(&cfg); err != nil {
		fatal(err)
	}
	if *bulkSpec != "" && cfg.Shards > 1 {
		// Fail loudly instead of letting the bulk demo die mid-walkthrough:
		// the bulk data plane only runs on the single-shard engine.
		fatal(&ncdsmfacade.ShardGateError{Feature: "the bulk data plane", Shards: cfg.Shards})
	}
	// Refuse an unknown -metrics format before any system is built.
	switch *metricsFmt {
	case "", "prom", "json":
	default:
		fatal(fmt.Errorf("unknown -metrics format %q (want prom or json)", *metricsFmt))
	}
	if *regions && cfg.Nodes() < figure1Nodes {
		fatal(fmt.Errorf("-regions needs at least %d nodes for the Figure 1 layout; the %dx%d mesh has %d",
			figure1Nodes, cfg.MeshWidth, cfg.MeshHeight, cfg.Nodes()))
	}
	// -memmap and -reserve name nodes; refuse one the configured mesh
	// does not have before anything prints.
	var memmapNode addr.NodeID
	if *memmap != 0 {
		id, err := nodeID(*memmap)
		if err == nil {
			err = onMesh(cfg, id)
		}
		if err != nil {
			fatal(fmt.Errorf("-memmap: %w", err))
		}
		memmapNode = id
	}
	var rsv reservation
	if *reserve != "" {
		var err error
		if rsv, err = reserveOnMesh(*reserve, cfg); err != nil {
			fatal(err)
		}
	}
	var exploreSpec ncdsmfacade.ExploreSpec
	if *explore != "" {
		if *consist == "" {
			fatal(fmt.Errorf("-explore needs -consistency to select protocols"))
		}
		var err error
		if exploreSpec, err = parseExplore(*explore, *parallel); err != nil {
			fatal(err)
		}
	}
	sys, err := ncdsmfacade.New(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println(ncdsmfacade.Describe(sys.Config()))
	if !cfg.Faults.Empty() {
		fmt.Printf("fault plan: %s\n", cfg.Faults)
	}
	fmt.Println()

	did := false
	if *memmap != 0 {
		did = true
		if err := sys.MemoryMap(memmapNode, os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *reserve != "" {
		did = true
		if err := walkReservation(sys, rsv); err != nil {
			fatal(err)
		}
	}
	if *regions {
		did = true
		if err := demoRegions(sys); err != nil {
			fatal(err)
		}
	}
	if *stats {
		did = true
		if err := dumpStats(os.Stdout, sys); err != nil {
			fatal(err)
		}
	}
	if *consist != "" {
		did = true
		if *explore != "" {
			if err := runExplore(sys.Config(), *consist, exploreSpec); err != nil {
				fatal(err)
			}
		} else if err := runLitmus(sys.Config(), *consist); err != nil {
			fatal(err)
		}
	}
	if *bulkSpec != "" {
		did = true
		if err := demoBulk(sys); err != nil {
			fatal(err)
		}
	}
	if *metricsFmt != "" {
		did = true
		if err := writeMetrics(os.Stdout, sys.Metrics(), *metricsFmt); err != nil {
			fatal(err)
		}
	}
	if !did {
		flag.Usage()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ncdsm-cluster:", err)
	os.Exit(1)
}

// writeMetrics streams the snapshot to out in the -metrics format
// through one buffered writer and reports a failed write or flush.
func writeMetrics(out io.Writer, snap ncdsmfacade.Snapshot, format string) error {
	w := bufio.NewWriter(out)
	var err error
	switch format {
	case "prom":
		err = snap.WritePrometheus(w)
	case "json":
		err = snap.WriteJSON(w)
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		return fmt.Errorf("-metrics %s: %w", format, err)
	}
	return nil
}

// nodeID checks a node identifier given on the command line. NodeID is
// a uint16, so an unchecked conversion would turn node 65537 into node 1.
func nodeID(n int) (addr.NodeID, error) {
	if n < 1 || n > addr.MaxNode {
		return 0, fmt.Errorf("node %d outside 1..%d", n, addr.MaxNode)
	}
	return addr.NodeID(n), nil
}

// onMesh refuses a node the configured mesh does not have.
func onMesh(cfg ncdsmfacade.Config, n addr.NodeID) error {
	if int(n) > cfg.Nodes() {
		return fmt.Errorf("node %d is not on the %dx%d mesh (nodes 1..%d)", n, cfg.MeshWidth, cfg.MeshHeight, cfg.Nodes())
	}
	return nil
}

// parseNodeID parses a decimal node identifier and checks it with nodeID.
func parseNodeID(s string) (addr.NodeID, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return nodeID(n)
}

// reservation is a parsed -reserve spec, requester:donor:size.
type reservation struct {
	req, donor addr.NodeID
	size       uint64
	sizeText   string // the size as written, for the narration
}

// parseReserve parses a -reserve spec.
func parseReserve(spec string) (reservation, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return reservation{}, fmt.Errorf("reserve spec %q, want requester:donor:size", spec)
	}
	req, err := parseNodeID(parts[0])
	if err != nil {
		return reservation{}, fmt.Errorf("reserve spec %q: requester: %w", spec, err)
	}
	donor, err := parseNodeID(parts[1])
	if err != nil {
		return reservation{}, fmt.Errorf("reserve spec %q: donor: %w", spec, err)
	}
	size, err := parseSize(parts[2])
	if err != nil {
		return reservation{}, err
	}
	return reservation{req: req, donor: donor, size: size, sizeText: parts[2]}, nil
}

// reserveOnMesh parses a -reserve spec and refuses one naming a node
// the configured mesh does not have.
func reserveOnMesh(spec string, cfg ncdsmfacade.Config) (reservation, error) {
	rs, err := parseReserve(spec)
	if err != nil {
		return reservation{}, err
	}
	for _, n := range []addr.NodeID{rs.req, rs.donor} {
		if err := onMesh(cfg, n); err != nil {
			return reservation{}, fmt.Errorf("reserve spec %q: %w", spec, err)
		}
	}
	return rs, nil
}

// walkReservation narrates the Figure 4 protocol.
func walkReservation(sys *ncdsmfacade.System, rs reservation) error {
	req, donor := rs.req, rs.donor
	region, err := sys.Region(req)
	if err != nil {
		return err
	}
	fmt.Printf("1. node %d is running out of local memory and asks node %d for %s\n",
		req, donor, rs.sizeText)
	core := sys.Core()
	agent, err := core.Agent(req)
	if err != nil {
		return err
	}
	rng, err := agent.ReserveRemoteFrom(donor, rs.size)
	if err != nil {
		return err
	}
	fmt.Printf("2. node %d reserves and pins local range [%v, %v) in its pooled zone\n",
		donor, rng.Start.Local(), rng.Start.Local()+addr.Phys(rng.Size))
	fmt.Printf("3. the acknowledgment carries the range prefixed with node %d's identifier: %v\n",
		donor, rng)
	r, err := core.Region(req)
	if err != nil {
		return err
	}
	base, err := r.MapBorrowed(rng)
	if err != nil {
		return err
	}
	pa, err := r.Translate(base)
	if err != nil {
		return err
	}
	fmt.Printf("4. node %d writes the translation into its page table: virtual %#x -> physical %v\n",
		req, uint64(base), pa)
	fmt.Printf("5. loads and stores at %#x now reach node %d's memory in hardware (no software on the path)\n",
		uint64(base), donor)
	fmt.Printf("   node %d effective memory: %d GB\n", req, region.EffectiveMemory()>>30)
	return nil
}

// figure1Nodes is the smallest cluster demoRegions' layout fits: it
// names nodes 2 to 5.
const figure1Nodes = 5

// demoRegions reproduces the Figure 1 layout: region 3 extended into its
// neighbors, region 5 into node D.
func demoRegions(sys *ncdsmfacade.System) error {
	core := sys.Core()
	grow := func(req, donor addr.NodeID, gb uint64) error {
		a, err := core.Agent(req)
		if err != nil {
			return err
		}
		_, err = a.ReserveRemoteFrom(donor, gb<<30)
		return err
	}
	// Region 3 (node 3) borrows from its neighbors 2 and 4; region 5
	// (node 5) borrows from node 4.
	for _, g := range []struct {
		req, donor addr.NodeID
		gb         uint64
	}{{3, 2, 4}, {3, 4, 4}, {5, 4, 2}} {
		if err := grow(g.req, g.donor, g.gb); err != nil {
			return err
		}
	}
	fmt.Println("region layout (paper Figure 1):")
	for n := addr.NodeID(1); int(n) <= sys.Nodes(); n++ {
		a, err := core.Agent(n)
		if err != nil {
			return err
		}
		if a.BorrowedBytes() == 0 && a.GrantedBytes() == 0 {
			continue
		}
		fmt.Printf("  region %2d: private %2d GB", n, sys.Config().PrivateMemPerNode>>30)
		if b := a.BorrowedBytes(); b > 0 {
			fmt.Printf(" + %d GB borrowed from", b>>30)
			for _, r := range a.Borrowed() {
				fmt.Printf(" node %d (%d GB)", r.Node(), r.Size>>30)
			}
		}
		if g := a.GrantedBytes(); g > 0 {
			fmt.Printf(" — lends out %d GB", g>>30)
		}
		fmt.Printf("; effective %d GB\n", a.EffectiveMemory()>>30)
	}
	fmt.Printf("cluster pool free: %d GB of %d GB\n",
		sys.PoolFree()>>30, sys.Config().PoolSize()>>30)
	return nil
}

// parseProtocols turns the -consistency flag value into a protocol
// list: "all" (or "") selects every registered protocol, otherwise a
// comma-separated subset of them.
func parseProtocols(spec string) ([]string, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return nil, nil // RunSuite's "everything" sentinel
	}
	known := make(map[string]bool)
	for _, n := range ncdsmfacade.ConsistencyProtocols() {
		known[n] = true
	}
	var out []string
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if !known[name] {
			return nil, fmt.Errorf("unknown protocol %q (want a comma list of %v, or all)",
				name, ncdsmfacade.ConsistencyProtocols())
		}
		out = append(out, name)
	}
	return out, nil
}

// runLitmus prints the consistency lab's litmus verdict table and fails
// if any protocol deviates from its expected verdict — printing each
// deviating outcome's schedule and history, the replayable trace an
// operator needs to reproduce the deviation.
func runLitmus(cfg ncdsmfacade.Config, spec string) error {
	protos, err := parseProtocols(spec)
	if err != nil {
		return err
	}
	report, err := ncdsmfacade.LitmusReport(cfg, protos...)
	if err != nil {
		return err
	}
	fmt.Println("litmus suite (SC = sequentially consistent history, perloc = per-location linearizable):")
	fmt.Print(report)
	results, err := ncdsmfacade.Litmus(cfg, protos...)
	if err != nil {
		return err
	}
	mismatches := 0
	for _, r := range results {
		if !r.Match {
			mismatches++
			fmt.Printf("\n%s/%s deviates from its expected verdict; offending %s",
				r.Test, r.Protocol, ncdsmfacade.LitmusTrace(r))
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d of %d litmus outcomes deviate from their protocol's expected verdict", mismatches, len(results))
	}
	fmt.Printf("%d outcomes, all matching their protocol's expected verdict\n", len(results))
	return nil
}

// parseExplore turns the -explore flag value into an ExploreSpec. The
// grammar is comma-combinable parts over the defaults:
//
//	exhaustive:N     enumerate every interleaving of programs with at
//	                 most N instructions (sleep-set reduced)
//	sample:N[:SEED]  draw N seeded schedules for longer programs
//
// parallel is the -parallel worker count: 0 means all cores, and a
// negative count is refused.
func parseExplore(spec string, parallel int) (ncdsmfacade.ExploreSpec, error) {
	s := ncdsmfacade.DefaultExploreSpec()
	if parallel < 0 {
		return s, fmt.Errorf("-parallel %d: want 0 (all cores) or a worker count", parallel)
	}
	s.Parallel = parallel
	if s.Parallel == 0 {
		s.Parallel = runtime.GOMAXPROCS(0)
	}
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		bad := func() error {
			return fmt.Errorf("explore spec part %q (want exhaustive:N or sample:N[:SEED])", part)
		}
		switch {
		case fields[0] == "exhaustive" && len(fields) == 2:
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return s, bad()
			}
			s.MaxDepth = n
		case fields[0] == "sample" && (len(fields) == 2 || len(fields) == 3):
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return s, bad()
			}
			s.Samples = n
			if len(fields) == 3 {
				seed, err := strconv.ParseInt(fields[2], 10, 64)
				if err != nil {
					return s, bad()
				}
				s.Seed = seed
			}
		default:
			return s, bad()
		}
	}
	return s, nil
}

// runExplore prints the schedule-exploration verdict table and fails if
// any exploration found problems that indict a protocol implementation.
func runExplore(cfg ncdsmfacade.Config, protoSpec string, spec ncdsmfacade.ExploreSpec) error {
	protos, err := parseProtocols(protoSpec)
	if err != nil {
		return err
	}
	// The banner names the budget but not the worker count: the entire
	// output is part of the determinism contract — byte-identical at any
	// -parallel setting — and CI enforces it with a plain cmp.
	fmt.Printf("schedule exploration (%s):\n", spec)
	report, problems, err := ncdsmfacade.ExploreReport(cfg, spec, protos...)
	if err != nil {
		return err
	}
	fmt.Print(report)
	if problems > 0 {
		return fmt.Errorf("exploration found %d problems indicting a protocol implementation", problems)
	}
	fmt.Println("no explored schedule indicts a protocol implementation")
	return nil
}

// demoBulk walks the bulk data plane end to end: a scatter-gather read
// against dependent scalar loads, a bulk scatter write, and a
// server-to-server DMA copy whose payload never transits the client.
func demoBulk(sys *ncdsmfacade.System) error {
	p := sys.Config()
	fmt.Printf("bulk data plane: %d-line data frames, up to %d frames per burst (%d KiB per burst)\n\n",
		p.BulkFrameLines, p.BulkMaxFrames, p.BurstMaxLines()*int(params.CacheLineSize)>>10)

	region, err := sys.Region(1)
	if err != nil {
		return err
	}
	src, err := region.GrowFrom(2, 1<<20)
	if err != nil {
		return err
	}
	dst, err := region.GrowFrom(3, 1<<20)
	if err != nil {
		return err
	}
	const size = 4096
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := region.Write(src, payload); err != nil {
		return err
	}

	// Act 1: 64 dependent scalar loads — each waits for the previous
	// round trip, the pointer-chase shape.
	var scalarDone ncdsmfacade.Time
	var chase func(i int, now ncdsmfacade.Time) error
	chase = func(i int, now ncdsmfacade.Time) error {
		if i == size/int(params.CacheLineSize) {
			scalarDone = now
			return nil
		}
		return region.Access(ncdsmfacade.AccessRequest{
			Now: now, Pointer: src + ncdsmfacade.Pointer(i)*params.CacheLineSize,
			Done: func(t ncdsmfacade.Time) {
				if err := chase(i+1, t); err != nil {
					fatal(err)
				}
			},
		})
	}
	if err := chase(0, sys.Now()); err != nil {
		return err
	}
	sys.Run()
	fmt.Printf("1. 64 dependent scalar loads of 4 KiB on node 2:   %8.2f µs (64 round trips)\n",
		float64(scalarDone)/float64(params.Microsecond))

	// Act 2: the same 4 KiB as one scatter-gather burst.
	start := sys.Now()
	var bulkDone ncdsmfacade.Time
	sink := make([]byte, size)
	err = region.ReadBulk(src, []ncdsmfacade.Span{{Offset: 0, Bytes: size}}, sink,
		func(t ncdsmfacade.Time, err2 error) {
			if err2 != nil {
				fatal(err2)
			}
			bulkDone = t
		})
	if err != nil {
		return err
	}
	sys.Run()
	gather := bulkDone - start
	fmt.Printf("2. one ReadBulk burst of the same 4 KiB:           %8.2f µs (%.1fx cheaper: one doorbell, one descriptor, one ack)\n",
		float64(gather)/float64(params.Microsecond), float64(scalarDone)/float64(gather))

	// Act 3: server-to-server copy — node 2 streams straight to node 3.
	start = sys.Now()
	var copyDone ncdsmfacade.Time
	if err := region.Copy(dst, src, size, func(t ncdsmfacade.Time, err2 error) {
		if err2 != nil {
			fatal(err2)
		}
		copyDone = t
	}); err != nil {
		return err
	}
	sys.Run()
	got := make([]byte, size)
	if err := region.Read(dst, got); err != nil {
		return err
	}
	for i := range got {
		if got[i] != payload[i] {
			return fmt.Errorf("bulk copy corrupted byte %d", i)
		}
	}
	fmt.Printf("3. Copy node 2 -> node 3 of the 4 KiB:             %8.2f µs (payload moved donor-to-donor, never transiting node 1)\n",
		float64(copyDone-start)/float64(params.Microsecond))
	return nil
}

// parseSize parses human sizes like 512MB, 4GB, 8192 (bytes). A size
// past 2^64-1 bytes is refused rather than wrapped.
func parseSize(s string) (uint64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	}
	n, err := strconv.ParseUint(strings.TrimSpace(u), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	if n > math.MaxUint64/mult {
		return 0, fmt.Errorf("bad size %q: overflows 64 bits", s)
	}
	return n * mult, nil
}

// dumpStats drives a representative load (4 threads on node 6 against
// servers at 1 hop, one background client) and prints to w where the
// time went: RMC utilizations, retry counts, link loads, cache and memory
// counters — the observability view an operator of the real prototype
// would want.
func dumpStats(w io.Writer, sys *ncdsmfacade.System) error {
	core := sys.Core()
	cl := core.Cluster()
	p := sys.Config()

	launch := func(client addr.NodeID, threads, accesses int, seed int64) error {
		region, err := core.Region(client)
		if err != nil {
			return err
		}
		rng, err := region.GrowFrom(7, 64<<20) // node 7 serves everyone
		if err != nil {
			return err
		}
		node, err := cl.Node(client)
		if err != nil {
			return err
		}
		for t := 0; t < threads; t++ {
			stream, err := workloads.RandomStream(seed+int64(t), []addr.Range{rng}, accesses, 0.1)
			if err != nil {
				return err
			}
			th, err := cpu.NewThread(cpu.ThreadConfig{
				Name: fmt.Sprintf("n%d/t%d", client, t), Engine: node.Engine(), Memory: node,
				Stream: stream, Core: t, WindowLocal: p.LocalOutstanding, WindowRemote: p.RemoteOutstanding,
			})
			if err != nil {
				return err
			}
			th.Start(0)
		}
		return nil
	}
	if err := launch(6, 4, 20000, 1); err != nil {
		return err
	}
	if err := launch(8, 2, 10000, 100); err != nil {
		return err
	}
	end := core.Run()

	fmt.Fprintf(w, "sample workload: 4 threads on node 6 + 2 on node 8, all against node 7; %.2f ms simulated\n\n",
		float64(end)/float64(params.Millisecond))
	fmt.Fprintf(w, "%-28s %10s\n", "component", "value")
	for _, id := range []addr.NodeID{6, 7, 8} {
		n, err := cl.Node(id)
		if err != nil {
			return err
		}
		r := n.RMC()
		fmt.Fprintf(w, "node %-2d RMC client util      %9.1f%%   (forwarded %d, NACK retries %d)\n",
			id, 100*r.ClientUtilization(end), r.Forwarded, r.Retries)
		fmt.Fprintf(w, "node %-2d RMC server util      %9.1f%%   (served %d, aborted %d)\n",
			id, 100*r.ServerUtilization(end), r.ServedHere, r.Aborted)
		reads, writes := n.Bank().Stats()
		fmt.Fprintf(w, "node %-2d caches               %9.1f%%   hit rate; DRAM %d reads / %d writes\n",
			id, 100*n.Caches().HitRate(), reads, writes)
	}
	meshFab, err := cl.MeshFabric()
	if err != nil {
		return err
	}
	topo := cl.Topology()
	fmt.Fprintln(w)
	for _, pair := range [][2]addr.NodeID{{6, 7}, {7, 6}, {8, 7}, {7, 8}} {
		if topo.Hops(pair[0], pair[1]) != 1 {
			continue
		}
		u, err := meshFab.LinkUtilization(pair[0], pair[1], end)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "mesh link %d->%d               %9.1f%%\n", pair[0], pair[1], 100*u)
	}
	return nil
}
