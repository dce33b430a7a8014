package experiments

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// fig7Client sits at (1,1) of the mesh — node 6 on the calibrated 4×4
// — so it has neighbors at one, two, and three hops in all the
// multiplicities Figure 7 needs, at any mesh size.
func fig7Client(o Options) addr.NodeID { return addr.NodeID(o.P.MeshWidth + 2) }

// Table1 characterizes the prototype: the configuration constants and
// the measured unloaded access latencies that anchor every other
// experiment (the paper reports these in Section IV/V prose; we render
// them as Table I).
func Table1(o Options) (*stats.Figure, error) {
	p := o.P
	fig := stats.NewFigure("table1", "Prototype configuration and latency characterization",
		"quantity", "value (µs where applicable)")

	conf := fig.AddSeries("configured")
	conf.AddLabeled("nodes", 1, float64(p.Nodes()))
	conf.AddLabeled("cores/node", 2, float64(p.CoresPerNode))
	conf.AddLabeled("memory/node (GB)", 3, float64(p.MemPerNode>>30))
	conf.AddLabeled("pooled/node (GB)", 4, float64(p.PooledMemPerNode()>>30))
	conf.AddLabeled("shared pool (GB)", 5, float64(p.PoolSize()>>30))
	conf.AddLabeled("outstanding local", 6, float64(p.LocalOutstanding))
	conf.AddLabeled("outstanding remote (RMC)", 7, float64(p.RemoteOutstanding))

	meas := fig.AddSeries("measured")
	accesses := o.scaled(20000, 200)

	// Point 0 is the local latency: dependent loads of distinct local
	// pages. The others are the remote latency at 1 and 6 hops, single
	// thread, unloaded. The max shows the unloaded path has no latency
	// tail — every access takes the same hardware trip, unlike a faulting
	// or OS-mediated path.
	hops := []int{0, 1, 6}
	points, err := sweep(o, len(hops), func(pt *point, i int) (result, error) {
		if i == 0 {
			return measureLocal(pt, accesses)
		}
		return pt.micro(o.P, 1, hops[i], 1, 1, accesses)
	})
	if err != nil {
		return nil, err
	}
	meas.AddLabeled("local access (µs)", 10, us(points[0].mean))
	for i, h := range hops[1:] {
		meas.AddLabeled(fmt.Sprintf("remote access, %d hop(s) (µs)", h), float64(11+2*i), us(points[i+1].mean))
		meas.AddLabeled(fmt.Sprintf("remote access max, %d hop(s) (µs)", h), float64(12+2*i), us(points[i+1].max))
	}
	fig.Note("remote/local latency ratio anchors Figures 9-11; analytic 1-hop round trip = %.2f µs",
		float64(p.RemoteRoundTrip(1))/float64(params.Microsecond))
	return fig, nil
}

// measureLocal issues accesses loads of distinct local pages on node 1,
// each after the previous one completes, and reports their mean latency.
func measureLocal(pt *point, accesses int) (result, error) {
	r, err := pt.run(pt.o.P)
	if err != nil {
		return result{}, err
	}
	node, err := r.sys.Cluster().Node(1)
	if err != nil {
		return result{}, err
	}
	var total sim.Time
	now := sim.Time(0)
	for i := 0; i < accesses; i++ {
		a := addr.Phys(uint64(i) * 4096) // distinct pages: always misses
		start := now
		var done sim.Time
		node.Issue(now, 0, cpu.Access{Addr: a}, false, func(ts sim.Time) { done = ts })
		r.sys.Run()
		total += done - start
		now = done
		// Scheduled fault windows (node stalls) are engine events too;
		// never issue behind a clock they have already advanced.
		if t := r.sys.Now(); t > now {
			now = t
		}
	}
	return result{mean: float64(total) / float64(accesses)}, nil
}

// Fig6 measures remote access latency versus distance: the random
// benchmark with one thread against a single memory server placed 1–6
// hops away. Latency grows linearly with the hop count; the local
// latency series shows the gap the RMC pays for crossing the fabric.
func Fig6(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("fig6", "Remote access latency vs distance",
		"hops to memory server", "latency per access (µs)")
	remote := fig.AddSeries("remote memory (measured)")
	analytic := fig.AddSeries("unloaded round trip (analytic)")
	local := fig.AddSeries("local memory")

	accesses := o.scaled(20000, 200)
	const maxHops = 6
	means, err := sweep(o, maxHops, func(pt *point, i int) (result, error) {
		return pt.micro(o.P, 1, i+1, 1, 1, accesses)
	})
	if err != nil {
		return nil, err
	}
	for i, m := range means {
		h := i + 1
		remote.Add(float64(h), us(m.mean))
		analytic.Add(float64(h), us(float64(o.P.RemoteRoundTrip(h))))
		local.Add(float64(h), us(float64(o.P.DRAMLatency+o.P.DRAMOccupancy+o.P.L1Latency)))
	}
	fig.Note("latency grows ~%.2f µs per hop (two link traversals per access)",
		2*float64(o.P.HopLatency)/float64(params.Microsecond))
	return fig, nil
}

// Fig7 reproduces the client-bottleneck study: execution time of a fixed
// number of random loads split over 1/2/4 threads against one server,
// then 4 threads against four servers at one, two, and three hops. The
// expected shape: 2 threads halve the time, 4 don't (client-RMC
// saturation); replicating the server doesn't help; and at 4 threads,
// moving the servers *farther* slightly *reduces* time because the
// longer round trip lowers the arrival rate at the client RMC's tiny
// queue and fewer NACK retries waste its capacity.
func Fig7(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("fig7", "Client-RMC bottleneck (random benchmark)",
		"configuration", "execution time (ms)")
	one := fig.AddSeries("1 server")
	four := fig.AddSeries("4 servers")

	total := o.scaled(60000, 1200) // total accesses, split across threads

	// All six configurations are independent simulations: the thread
	// sweep against one server, then the distance sweep at 4 threads.
	specs := []struct{ threads, hops, servers int }{
		{1, 1, 1}, {2, 1, 1}, {4, 1, 1},
		{4, 1, 4}, {4, 2, 4}, {4, 3, 4},
	}
	times, err := sweep(o, len(specs), func(pt *point, i int) (result, error) {
		s := specs[i]
		return pt.micro(o.P, fig7Client(o), s.hops, s.servers, s.threads, total/s.threads)
	})
	if err != nil {
		return nil, err
	}
	for i, s := range specs[:3] {
		one.AddLabeled(fmt.Sprintf("%dt, 1 hop", s.threads), float64(i), ms(times[i].end))
	}
	for j, s := range specs[3:] {
		four.AddLabeled(fmt.Sprintf("4t, %d hop", s.hops), float64(3+j), ms(times[3+j].end))
	}
	fig.Note("expected: 1t→2t halves time; 2t→4t does not; 4 servers no better; farther servers slightly faster at 4t")
	return fig, nil
}

// fig8Setup describes one x-axis point of Figure 8.
type fig8Setup struct {
	Nodes, ThreadsPer int
}

// Fig8 reproduces the server-congestion study: a control thread on a
// node connected to the memory server by a private (express) link runs a
// fixed random workload while an increasing number of other client nodes
// stress the same server over the mesh. The control time stays flat up
// to about three stressing nodes, then rises — server-RMC congestion,
// not network congestion, because the control traffic never shares mesh
// links with the stressors.
func Fig8(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("fig8", "Server-RMC congestion (control thread on private link)",
		"stressing load", "control-thread time (ms)")
	ctrl := fig.AddSeries("control thread")

	controlAccesses := o.scaled(20000, 400)
	setups := []fig8Setup{{0, 0}, {1, 1}, {1, 2}, {1, 4}, {2, 4}, {3, 4}, {4, 4}, {5, 4}, {6, 4}}
	times, err := sweep(o, len(setups), func(pt *point, i int) (sim.Time, error) {
		return fig8Point(pt, setups[i], controlAccesses)
	})
	if err != nil {
		return nil, err
	}
	for i, s := range setups {
		label := "no stressors"
		if s.Nodes > 0 {
			label = fmt.Sprintf("%dn x %dt", s.Nodes, s.ThreadsPer)
		}
		ctrl.AddLabeled(label, float64(i), ms(times[i]))
	}
	fig.Note("expected: flat through ~3 nodes x 4 threads, then rising as the server RMC saturates")
	return fig, nil
}

// fig8Point simulates one load point, the control thread plus s.Nodes
// stressing clients on a fresh cluster, and returns the control
// thread's finish time.
func fig8Point(pt *point, s fig8Setup, controlAccesses int) (sim.Time, error) {
	const (
		server  = addr.NodeID(6)  // (1,1)
		control = addr.NodeID(16) // (3,3), reaches the server by express link only
	)
	stressors := []addr.NodeID{1, 2, 3, 4, 5, 7, 9, 10, 11, 13}

	r, err := pt.run(pt.o.P)
	if err != nil {
		return 0, err
	}
	meshFab, err := r.sys.Cluster().MeshFabric()
	if err != nil {
		return 0, err
	}
	if err := meshFab.AddExpressLink(control, server); err != nil {
		return 0, err
	}
	// Control thread: express-routed loads against the server. Its
	// finish ends the run; the stressors exist only to load the server
	// while it runs.
	rng, err := r.borrow(control, server, 64<<20)
	if err != nil {
		return 0, err
	}
	stream, err := workloads.RandomStream(pt.o.Seed, []addr.Range{rng}, controlAccesses, 0)
	if err != nil {
		return 0, err
	}
	c := cpu.ThreadConfig{Name: fmt.Sprintf("n%d/t0", control), Stream: stream, Express: true, OnDone: r.endsRun(control)}
	if _, err := r.start(control, c, 0); err != nil {
		return 0, err
	}
	// Stressing clients: effectively endless streams against the same
	// server over the mesh.
	for n := 0; n < s.Nodes; n++ {
		seed := pt.o.Seed + int64(100*(n+1))
		if err := r.random(stressors[n], []addr.NodeID{server}, 64<<20, s.ThreadsPer, controlAccesses*50, 0, seed); err != nil {
			return 0, err
		}
	}
	res, err := r.finish()
	return res.end, err
}

// AblationWindow sweeps the per-core outstanding-request limit against
// the RMC range — the prototype's HT-I/O-unit restriction (1) versus the
// paper's future-work goal of a real memory controller (up to the local
// window of 8).
func AblationWindow(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("ablationB", "Outstanding-request window (RMC as I/O unit vs memory controller)",
		"outstanding remote requests per core", "execution time (ms)")
	s := fig.AddSeries("1 thread, 1 server, 1 hop")
	accesses := o.scaled(40000, 800)
	windows := []int{1, 2, 4, 8}
	times, err := sweep(o, len(windows), func(pt *point, i int) (result, error) {
		w := windows[i]
		p := o.P
		p.RemoteOutstanding = w
		// A real memory-controller RMC (the paper's future work) would
		// size its admission queue for the node's outstanding requests;
		// widening the window without the queue only multiplies NACKs.
		if p.RMCQueueDepth < w {
			p.RMCQueueDepth = w
		}
		return pt.micro(p, 1, 1, 1, 1, accesses)
	})
	if err != nil {
		return nil, err
	}
	for i, w := range windows {
		s.Add(float64(w), ms(times[i].end))
	}
	fig.Note("window 1 is the prototype; widening overlaps round trips until the client RMC occupancy binds")
	return fig, nil
}

// AblationRetry probes the mechanism behind Figure 7's inversion: with
// the prototype's tiny admission queue, 4 threads at 1 hop waste client-
// RMC capacity on NACK retries, so 3 hops can be faster; deepening the
// queue removes the inversion.
func AblationRetry(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("ablationC", "Client-RMC admission queue vs the Fig. 7 inversion",
		"RMC queue depth", "execution time, 4 threads (ms)")
	near := fig.AddSeries("4 servers, 1 hop")
	far := fig.AddSeries("4 servers, 3 hops")
	total := o.scaled(60000, 1200)
	depths := []int{1, 2, 4, 8}
	hops := []int{1, 3}
	times, err := sweep(o, len(depths)*len(hops), func(pt *point, i int) (result, error) {
		p := o.P
		p.RMCQueueDepth = depths[i/len(hops)]
		return pt.micro(p, fig7Client(o), hops[i%len(hops)], 4, 4, total/4)
	})
	if err != nil {
		return nil, err
	}
	for i, res := range times {
		depth, hop := depths[i/len(hops)], hops[i%len(hops)]
		if hop == 1 {
			near.Add(float64(depth), ms(res.end))
		} else {
			far.Add(float64(depth), ms(res.end))
		}
	}
	fig.Note("at depth 1 the near configuration can exceed the far one (retry waste); deeper queues restore near <= far")
	return fig, nil
}
