package experiments

// The driver: one way to build, run and fold a simulated point. Every
// generator runs its points through sweep; every micro-layer point
// builds its system and threads through run.

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// point is one sweep point's share of the driver: the options it runs
// under and the registries of the simulations it built, kept only when
// metrics were requested.
type point struct {
	o    Options
	regs []*metrics.Registry
}

// keep records a simulation's registry for sweep to snapshot once the
// point returns.
func (pt *point) keep(reg *metrics.Registry) {
	if pt.o.Metrics != nil {
		pt.regs = append(pt.regs, reg)
	}
}

// sweep runs a generator's n points on runner.Map, at most o.Parallel
// at once, and returns their values in point order. When o asks for
// metrics, each point's worker snapshots the registries the point kept,
// and sweep folds the snapshots into o.Metrics by point index, then in
// the order the point kept them, so the merged snapshot is
// byte-identical at every Parallel setting.
func sweep[T any](o Options, n int, fn func(pt *point, i int) (T, error)) ([]T, error) {
	type out struct {
		v     T
		snaps []metrics.Snapshot
	}
	outs, err := runner.Map(o.Parallel, n, func(i int) (out, error) {
		pt := point{o: o}
		v, err := fn(&pt, i)
		if err != nil {
			return out{}, err
		}
		res := out{v: v}
		for _, reg := range pt.regs {
			res.snaps = append(res.snaps, reg.Snapshot())
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	vs := make([]T, n)
	for i, r := range outs {
		vs[i] = r.v
		for _, s := range r.snaps {
			o.Metrics.Add(s)
		}
	}
	return vs, nil
}

// run is one simulation on the micro layer: a fresh system, the threads
// started on it, and the check that they finished.
type run struct {
	sys     *core.System
	threads []*cpu.Thread
}

// run builds a fresh system from p for the point.
func (pt *point) run(p params.Params) (*run, error) {
	sys, err := core.NewSystem(p)
	if err != nil {
		return nil, err
	}
	pt.keep(sys.Registry())
	return &run{sys: sys}, nil
}

// borrow grows client's region by bytes of donor's memory.
func (r *run) borrow(client, donor addr.NodeID, bytes uint64) (addr.Range, error) {
	region, err := r.sys.Region(client)
	if err != nil {
		return addr.Range{}, err
	}
	return region.GrowFrom(donor, bytes)
}

// start builds a thread on client from c, filling in the node's engine
// and memory and the calibration's request windows, and starts it at
// at. finish checks that it finished.
func (r *run) start(client addr.NodeID, c cpu.ThreadConfig, at sim.Time) (*cpu.Thread, error) {
	node, err := r.sys.Cluster().Node(client)
	if err != nil {
		return nil, err
	}
	p := r.sys.Params()
	c.Engine, c.Memory = node.Engine(), node
	c.WindowLocal, c.WindowRemote = p.LocalOutstanding, p.RemoteOutstanding
	th, err := cpu.NewThread(c)
	if err != nil {
		return nil, err
	}
	th.Start(at)
	r.threads = append(r.threads, th)
	return th, nil
}

// random starts the paper's random microbenchmark on client: it borrows
// bytes from each donor in turn, then starts threads threads of
// perThread accesses spread uniformly over those ranges, a writeFrac
// share of them stores. Thread t is named n<client>/t<t>, runs on core
// t mod the node's cores, and draws its stream from seed + 7919t.
func (r *run) random(client addr.NodeID, donors []addr.NodeID, bytes uint64, threads, perThread int, writeFrac float64, seed int64) error {
	ranges := make([]addr.Range, len(donors))
	for i, d := range donors {
		var err error
		if ranges[i], err = r.borrow(client, d, bytes); err != nil {
			return err
		}
	}
	for t := 0; t < threads; t++ {
		stream, err := workloads.RandomStream(seed+int64(t)*7919, ranges, perThread, writeFrac)
		if err != nil {
			return err
		}
		c := cpu.ThreadConfig{Name: fmt.Sprintf("n%d/t%d", client, t), Stream: stream, Core: t % r.sys.Params().CoresPerNode}
		if _, err := r.start(client, c, 0); err != nil {
			return err
		}
	}
	return nil
}

// endsRun returns the OnDone hook of a thread on client whose finish
// ends the run, a pad later (core.System.StopAfter): the run's other
// threads only load the machine, so finish then checks that thread
// alone. The hook runs on client's shard mid-window; nothing reads
// r.threads until Run returns.
func (r *run) endsRun(client addr.NodeID) func(*cpu.Thread, sim.Time) {
	return func(th *cpu.Thread, t sim.Time) {
		r.threads = []*cpu.Thread{th}
		r.sys.StopAfter(client, t)
	}
}

// result is a finished run: its latest thread finish, and the mean and
// max latency over every access its threads made, in picoseconds.
type result struct {
	end       sim.Time
	mean, max float64
}

// finish runs the system until it drains, or until endsRun stops it,
// checks that every thread finished, and reports the run's result.
func (r *run) finish() (result, error) {
	r.sys.Run()
	var res result
	var latSum float64
	var latN uint64
	for _, th := range r.threads {
		if !th.Done {
			return result{}, fmt.Errorf("experiments: thread %s did not finish", th.Name)
		}
		res.end = max(res.end, th.FinishTime)
		res.max = max(res.max, th.Latency.Max())
		latSum += th.Latency.Mean() * float64(th.Latency.N())
		latN += th.Latency.N()
	}
	if latN > 0 {
		res.mean = latSum / float64(latN)
	}
	return res, nil
}

// micro runs the paper's random microbenchmark alone on a fresh system
// built from p: threads threads of perThread loads on client, over
// 64 MiB borrowed from each of the first servers nodes hops away.
func (pt *point) micro(p params.Params, client addr.NodeID, hops, servers, threads, perThread int) (result, error) {
	donors, err := serversAt(p, client, hops, servers)
	if err != nil {
		return result{}, err
	}
	r, err := pt.run(p)
	if err != nil {
		return result{}, err
	}
	if err := r.random(client, donors, 64<<20, threads, perThread, 0, pt.o.Seed); err != nil {
		return result{}, err
	}
	return r.finish()
}

// serversAt picks n distinct server nodes exactly h hops from the
// client, preferring low identifiers for determinism. Pure geometry — no
// system is built.
func serversAt(p params.Params, client addr.NodeID, h, n int) ([]addr.NodeID, error) {
	topo, err := mesh.NewTopology(p.MeshWidth, p.MeshHeight)
	if err != nil {
		return nil, err
	}
	cands := topo.AtDistance(client, h)
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	if len(cands) < n {
		return nil, fmt.Errorf("experiments: only %d nodes at distance %d from node %d, need %d", len(cands), h, client, n)
	}
	return cands[:n], nil
}

// lineStream walks n consecutive cache lines from start, as loads or,
// when write is set, stores.
func lineStream(start addr.Phys, n int, write bool) cpu.Stream {
	i := 0
	return cpu.FuncStream(func() (cpu.Access, bool) {
		if i >= n {
			return cpu.Access{}, false
		}
		a := start + addr.Phys(uint64(i)*params.CacheLineSize)
		i++
		return cpu.Access{Addr: a, Write: write}, true
	})
}

// us and ms convert picoseconds to microseconds and milliseconds.
func us(ps float64) float64 { return ps / float64(params.Microsecond) }
func ms(ps int64) float64   { return float64(ps) / float64(params.Millisecond) }
