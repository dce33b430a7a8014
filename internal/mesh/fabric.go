package mesh

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// linkKey identifies one directed express link.
type linkKey struct {
	from, to addr.NodeID
}

// Directions of a node's outgoing mesh links, in Topology.Neighbors
// order. Mesh link (n, dir) lives at index 4*(n-1)+dir of the fabric's
// dense link table.
const (
	dirWest = iota
	dirEast
	dirNorth
	dirSouth
)

// link is one directed link, 40 bytes: when it can start serializing
// the next frame, its traversal latency (per-edge under a -linklat
// table, HopLatency otherwise), the occupancy it has accumulated, and
// the traffic tallies the metrics layer samples lazily. A link is an
// unbounded FIFO server, so it keeps no queue: a frame finishes
// serializing at max(t, free) plus its occupancy.
type link struct {
	free   sim.Time
	lat    sim.Time
	busy   sim.Time
	frames uint64
	bytes  uint64
}

// cross serializes a frame of wireBytes onto the link no earlier than t,
// behind every frame already booked on it, and returns when the frame
// reaches the far end.
func (l *link) cross(t, occ sim.Time, wireBytes int) sim.Time {
	done := max(t, l.free) + occ
	l.free = done
	l.busy += occ
	l.frames++
	l.bytes += uint64(wireBytes)
	return done + l.lat
}

// Fabric is the timed fabric: every directed mesh link is a FIFO server
// whose occupancy models serialization bandwidth, and crossing a link
// additionally costs the hop latency (SerDes + router traversal).
// Express links are dedicated point-to-point connections outside the
// mesh, used only by traffic that explicitly asks for them.
type Fabric struct {
	topo     Topology
	p        params.Params
	inj      *faults.Injector // nil on a fault-free fabric
	links    []link           // dense mesh-link table; entries off the mesh edge stay zero
	express  map[linkKey]*link
	onChange func() // invoked after link-set changes (express additions)

	// Delivered counts frames fully delivered; Hops counts link
	// traversals (mesh only — an express crossing is not a mesh hop).
	Delivered uint64
	Hops      uint64

	// Reroutes counts hops diverted off the XY route around a down
	// link; DetourHops counts the extra traversals those diversions
	// cost; Unreachable counts frames that found no route at all. All
	// three stay zero (and unregistered) without an injector.
	Reroutes    uint64
	DetourHops  uint64
	Unreachable uint64
}

// NewFabric builds the timed mesh with the given calibration and
// registers its metric families in m. A nil injector yields the
// fault-free fabric: pure XY routes, no drops, and no fault metric
// families.
func NewFabric(m *metrics.Registry, topo Topology, p params.Params, inj *faults.Injector) *Fabric {
	f := &Fabric{
		topo:    topo,
		p:       p,
		inj:     inj,
		links:   make([]link, 4*topo.Nodes()),
		express: make(map[linkKey]*link),
	}
	for i := range f.links {
		from := addr.NodeID(i/4 + 1)
		if to, ok := f.linkEnd(from, i%4); ok {
			fx, fy := topo.Coord(from)
			tx, ty := topo.Coord(to)
			f.links[i].lat = p.LinkLat.EdgeLatency(fx, fy, tx, ty, p.HopLatency)
		}
	}
	f.register(m)
	return f
}

// register adds the fabric's families: its totals, the reroute tallies
// of a faulted fabric, and the traffic of every directed link, mesh and
// express, enumerated at snapshot time.
func (f *Fabric) register(m *metrics.Registry) {
	total := func(name, help string, v *uint64) {
		m.Counters(name, help, nil, func(e *metrics.Emitter) { e.Value(float64(*v)) })
	}
	total(metrics.FamMeshDelivered, "frames fully delivered by the fabric", &f.Delivered)
	total(metrics.FamMeshHops, "mesh link traversals", &f.Hops)
	if f.inj != nil {
		total(metrics.FamMeshReroutes, "hops diverted around down links", &f.Reroutes)
		total(metrics.FamMeshDetourHops, "extra link traversals caused by detours", &f.DetourHops)
		total(metrics.FamMeshUnreachable, "frames that found no route", &f.Unreachable)
	}
	perLink := func(name, help string, v func(*link) uint64) {
		m.Counters(name, help, []string{"class", "from", "to"}, func(e *metrics.Emitter) {
			f.eachLink(func(l *link, class string, from, to addr.NodeID) {
				e.Value(float64(v(l)), class, e.Itoa(int(from)), e.Itoa(int(to)))
			})
		})
	}
	perLink(metrics.FamMeshLinkFrames, "frames carried by this directed link", func(l *link) uint64 { return l.frames })
	perLink(metrics.FamMeshLinkBytes, "wire bytes carried by this directed link", func(l *link) uint64 { return l.bytes })
}

// eachLink calls fn for every directed link: the mesh links, then the
// express links in no particular order.
func (f *Fabric) eachLink(fn func(l *link, class string, from, to addr.NodeID)) {
	for i := range f.links {
		from := addr.NodeID(i/4 + 1)
		if to, ok := f.linkEnd(from, i%4); ok {
			fn(&f.links[i], "mesh", from, to)
		}
	}
	for k, l := range f.express {
		fn(l, "express", k.from, k.to)
	}
}

// linkEnd returns the far end of node n's mesh link in direction dir,
// and false when that link would leave the mesh — the inverse of
// linkIndex.
func (f *Fabric) linkEnd(n addr.NodeID, dir int) (addr.NodeID, bool) {
	id, w := int(n), f.topo.W
	switch dir {
	case dirWest:
		return n - 1, (id-1)%w != 0
	case dirEast:
		return n + 1, id%w != 0
	case dirNorth:
		return n - addr.NodeID(w), id > w
	default:
		return n + addr.NodeID(w), id+w <= f.topo.Nodes()
	}
}

// linkIndex returns the dense-table index of the directed mesh link
// from->to, and false when the two nodes are not mesh neighbors. Vertical
// steps are tested first: on a one-column mesh a step of ±1 is ±W.
func (f *Fabric) linkIndex(from, to addr.NodeID) (int, bool) {
	if !f.topo.Contains(from) || !f.topo.Contains(to) {
		return 0, false
	}
	base, w := 4*(int(from)-1), f.topo.W
	switch d := int(to) - int(from); {
	case d == -w:
		return base + dirNorth, true
	case d == w:
		return base + dirSouth, true
	case d == -1 && (int(from)-1)%w != 0:
		return base + dirWest, true
	case d == 1 && int(from)%w != 0:
		return base + dirEast, true
	}
	return 0, false
}

// AddExpressLink installs a dedicated bidirectional point-to-point link
// between two nodes (one spare HTX connector each). Traffic only uses it
// via DeliverExpress. In a sharded run, call it only with the shard set
// parked — before Run or between Run calls — since the lookahead
// recompute the topology-change hook triggers refuses to tighten the
// bound matrix while windows are executing.
func (f *Fabric) AddExpressLink(a, b addr.NodeID) error {
	if !f.topo.Contains(a) || !f.topo.Contains(b) || a == b {
		return fmt.Errorf("mesh: invalid express link %d<->%d", a, b)
	}
	for _, k := range []linkKey{{a, b}, {b, a}} {
		if _, dup := f.express[k]; dup {
			return fmt.Errorf("mesh: express link %d->%d already exists", k.from, k.to)
		}
		f.express[k] = &link{lat: f.p.HopLatency}
	}
	if f.onChange != nil {
		f.onChange()
	}
	return nil
}

// OnTopologyChange installs a hook invoked after the link set changes
// (today: express-link additions). The sharded engine recomputes its
// lookahead bound matrix here — an express link is a new fastest path
// between its endpoints' regions.
func (f *Fabric) OnTopologyChange(fn func()) { f.onChange = fn }

// occupancy returns the link occupancy of a frame of the given wire size:
// the calibrated per-packet occupancy covers one cache-line frame; larger
// transfers (page DMA) scale linearly.
func (f *Fabric) occupancy(wireBytes int) sim.Time {
	units := (wireBytes + params.CacheLineSize - 1) / params.CacheLineSize
	if units < 1 {
		units = 1
	}
	return sim.Time(units) * f.p.LinkOccupancy
}

// DeliverOutcome pushes one frame of wireBytes from src to dst, starting
// at now, and reports its arrival time, hop count, and fate. Each hop is
// store-and-forward: the frame serializes onto the link (waiting behind
// earlier frames), then takes the hop latency to cross, which is how
// contention on shared mesh links appears in Figure 8. Without an
// injector the frame takes the XY route and is always delivered. Under a
// fault plan it detours around links the plan has taken down (greedy:
// the up neighbor closest to the destination that is not an immediate
// bounce back) and rolls the plan's drop, corruption, and delay
// probabilities on every traversal.
func (f *Fabric) DeliverOutcome(now sim.Time, src, dst addr.NodeID, wireBytes int) faults.Outcome {
	if src == dst {
		return faults.Outcome{Arrive: int64(now), Status: faults.Delivered}
	}
	if f.inj == nil {
		return f.deliverXY(now, src, dst, wireBytes)
	}
	occ := f.occupancy(wireBytes)
	t := now
	cur := src
	var prev addr.NodeID
	hops := 0
	detoured := false
	corrupted := false
	// A frame wandering past every possible detour is unroutable; the
	// cap bounds ping-ponging when outages partition the mesh.
	maxHops := 4*(f.topo.W+f.topo.H) + 8
	for cur != dst {
		if hops >= maxHops {
			f.Unreachable++
			return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Unreachable}
		}
		next, detour, ok := f.nextHop(cur, prev, dst, t, detoured)
		if !ok {
			f.Unreachable++
			return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Unreachable}
		}
		if detour {
			detoured = true
			f.Reroutes++
		}
		i, _ := f.linkIndex(cur, next)
		t = f.links[i].cross(t, occ, wireBytes)
		f.Hops++
		hops++
		if d, ok := f.inj.RollDelay(); ok {
			t += sim.Time(d)
		}
		if f.inj.RollDrop() {
			// The frame occupied every link up to here, then vanished.
			return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Dropped}
		}
		if f.inj.RollCorrupt() {
			corrupted = true
		}
		prev, cur = cur, next
	}
	f.Delivered++
	if detoured {
		if extra := hops - f.topo.Hops(src, dst); extra > 0 {
			f.DetourHops += uint64(extra)
		}
	}
	st := faults.Delivered
	if corrupted {
		st = faults.Corrupted
	}
	return faults.Outcome{Arrive: int64(t), Hops: hops, Status: st}
}

// deliverXY is the fault-free walk: the XY route, x leg then y leg, with
// the link index stepped by plain integer arithmetic — no coordinate
// division and no lookup per hop.
func (f *Fabric) deliverXY(now sim.Time, src, dst addr.NodeID, wireBytes int) faults.Outcome {
	occ := f.occupancy(wireBytes)
	w := f.topo.W
	s, d := int(src)-1, int(dst)-1
	sx, sy, dx, dy := s%w, s/w, d%w, d/w
	t := now
	dir, step := dirEast, 1
	if dx < sx {
		dir, step = dirWest, -1
	}
	for n := abs(dx - sx); n > 0; n-- {
		t = f.links[4*s+dir].cross(t, occ, wireBytes)
		s += step
	}
	dir, step = dirSouth, w
	if dy < sy {
		dir, step = dirNorth, -w
	}
	for n := abs(dy - sy); n > 0; n-- {
		t = f.links[4*s+dir].cross(t, occ, wireBytes)
		s += step
	}
	hops := abs(dx-sx) + abs(dy-sy)
	f.Hops += uint64(hops)
	f.Delivered++
	return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Delivered}
}

// nextHop picks the next node on the way to dst under a fault plan. It
// is the XY dimension-order neighbor unless that link is down or the
// frame has already detoured (greedy); then it is the live neighbor
// closest to the destination. The greedy mode matters: strict XY
// preference at the nodes around an outage steers a detoured frame
// straight back into the down link forever, whereas distance-greedy
// routing walks it around the cut. Selection order is deterministic
// (distance to dst, then identifier), so routes under a fixed fault plan
// replay exactly.
func (f *Fabric) nextHop(cur, prev, dst addr.NodeID, at sim.Time, greedy bool) (addr.NodeID, bool, bool) {
	x, y := f.topo.Coord(cur)
	bx, by := f.topo.Coord(dst)
	var pref addr.NodeID
	if x != bx {
		pref = f.topo.NodeAt(x+sign(bx-x), y)
	} else {
		pref = f.topo.NodeAt(x, y+sign(by-y))
	}
	if !greedy && !f.inj.LinkDown(cur, pref, int64(at)) {
		return pref, false, true
	}
	// The mesh neighbors, insertion-sorted by (distance to dst, id).
	var nbs [4]addr.NodeID
	var dist [4]int
	n, w := 0, f.topo.W
	steps := [4]struct {
		ok  bool
		off int
	}{{x > 0, -1}, {x < w-1, 1}, {y > 0, -w}, {y < f.topo.H-1, w}}
	for _, st := range steps {
		if !st.ok {
			continue
		}
		nb := addr.NodeID(int(cur) + st.off)
		dn := f.topo.Hops(nb, dst)
		i := n
		for ; i > 0 && (dist[i-1] > dn || dist[i-1] == dn && nbs[i-1] > nb); i-- {
			nbs[i], dist[i] = nbs[i-1], dist[i-1]
		}
		nbs[i], dist[i] = nb, dn
		n++
	}
	for _, nb := range nbs[:n] {
		if nb == prev {
			continue // never an immediate bounce back (loop bait)
		}
		if !greedy && nb == pref {
			continue // the XY link is known down on this path
		}
		if !f.inj.LinkDown(cur, nb, int64(at)) {
			return nb, nb != pref, true
		}
	}
	// Dead end: back out the way we came if that link is still up.
	if prev != 0 && !f.inj.LinkDown(cur, prev, int64(at)) {
		return prev, true, true
	}
	return 0, false, false
}

// DeliverExpress sends a frame over a dedicated express link. It fails if
// no such link exists. Express links are direct point-to-point cables
// outside the mesh and outside the fault plan: they neither drop nor
// reroute.
func (f *Fabric) DeliverExpress(now sim.Time, src, dst addr.NodeID, wireBytes int) (sim.Time, error) {
	l, ok := f.express[linkKey{src, dst}]
	if !ok {
		return 0, fmt.Errorf("mesh: no express link %d->%d", src, dst)
	}
	f.Delivered++
	return l.cross(now, f.occupancy(wireBytes), wireBytes), nil
}

// LinkUtilization returns the utilization of the directed mesh link
// from->to over elapsed time, for diagnostics.
func (f *Fabric) LinkUtilization(from, to addr.NodeID, elapsed sim.Time) (float64, error) {
	i, ok := f.linkIndex(from, to)
	if !ok {
		return 0, fmt.Errorf("mesh: no link %d->%d", from, to)
	}
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(f.links[i].busy) / float64(elapsed), nil
}

// Links returns the number of directed mesh links.
func (f *Fabric) Links() int {
	w, h := f.topo.W, f.topo.H
	return 2 * ((w-1)*h + w*(h-1))
}
