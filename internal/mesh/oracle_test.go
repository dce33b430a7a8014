package mesh

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/addr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// ---- reference implementation: the map-walk fabric ----
//
// The dense link table and the integer XY walk must reproduce, frame for
// frame, the fabric that kept its links in a map keyed by (from, to),
// converted coordinates on every hop, and sorted a freshly allocated
// neighbor slice at every detour. The oracle below is that fabric's
// delivery path, kept verbatim (minus metrics) as the specification.
// Its links book occupancy through sim.Resource, whose own oracle pins
// it to the slot-tracking original.

type oracleLink struct {
	res    *sim.Resource
	lat    sim.Time
	frames uint64
	bytes  uint64
}

type oracleFabric struct {
	topo  Topology
	p     params.Params
	inj   *faults.Injector
	links map[linkKey]*oracleLink

	Delivered, Hops, Reroutes, DetourHops, Unreachable uint64
}

func newOracleFabric(topo Topology, p params.Params, inj *faults.Injector) *oracleFabric {
	f := &oracleFabric{topo: topo, p: p, inj: inj, links: make(map[linkKey]*oracleLink)}
	for id := addr.NodeID(1); int(id) <= topo.Nodes(); id++ {
		for _, nb := range topo.Neighbors(id) {
			fx, fy := topo.Coord(id)
			tx, ty := topo.Coord(nb)
			f.links[linkKey{id, nb}] = &oracleLink{
				res: sim.NewResource(0),
				lat: p.LinkLat.EdgeLatency(fx, fy, tx, ty, p.HopLatency),
			}
		}
	}
	return f
}

func (f *oracleFabric) occupancy(wireBytes int) sim.Time {
	units := (wireBytes + params.CacheLineSize - 1) / params.CacheLineSize
	if units < 1 {
		units = 1
	}
	return sim.Time(units) * f.p.LinkOccupancy
}

func (f *oracleFabric) DeliverOutcome(now sim.Time, src, dst addr.NodeID, wireBytes int) faults.Outcome {
	if src == dst {
		return faults.Outcome{Arrive: int64(now), Status: faults.Delivered}
	}
	occ := f.occupancy(wireBytes)
	t := now
	cur := src
	var prev addr.NodeID
	hops := 0
	detoured := false
	corrupted := false
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
		l := f.links[linkKey{cur, next}]
		done, _ := l.res.Acquire(t, occ)
		l.frames++
		l.bytes += uint64(wireBytes)
		f.Hops++
		t = done + l.lat
		hops++
		if f.inj != nil {
			if d, ok := f.inj.RollDelay(); ok {
				t += sim.Time(d)
			}
			if f.inj.RollDrop() {
				return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Dropped}
			}
			if f.inj.RollCorrupt() {
				corrupted = true
			}
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

func (f *oracleFabric) nextHop(cur, prev, dst addr.NodeID, at sim.Time, greedy bool) (addr.NodeID, bool, bool) {
	x, y := f.topo.Coord(cur)
	bx, by := f.topo.Coord(dst)
	var pref addr.NodeID
	if x != bx {
		pref = f.topo.NodeAt(x+sign(bx-x), y)
	} else {
		pref = f.topo.NodeAt(x, y+sign(by-y))
	}
	if f.inj == nil {
		return pref, false, true
	}
	if !greedy && !f.inj.LinkDown(cur, pref, int64(at)) {
		return pref, false, true
	}
	nbs := f.topo.Neighbors(cur)
	sort.Slice(nbs, func(i, j int) bool {
		di, dj := f.topo.Hops(nbs[i], dst), f.topo.Hops(nbs[j], dst)
		if di != dj {
			return di < dj
		}
		return nbs[i] < nbs[j]
	})
	for _, nb := range nbs {
		if nb == prev {
			continue
		}
		if !greedy && nb == pref {
			continue
		}
		if !f.inj.LinkDown(cur, nb, int64(at)) {
			return nb, nb != pref, true
		}
	}
	if prev != 0 && !f.inj.LinkDown(cur, prev, int64(at)) {
		return prev, true, true
	}
	return 0, false, false
}

// ---- the shared random scenario ----

// randomLinkLat draws a -linklat table: axis overrides, specific-edge
// overrides, both, or neither.
func randomLinkLat(rng *rand.Rand, topo Topology, hop sim.Time) params.LinkLatSpec {
	var s params.LinkLatSpec
	if rng.Intn(2) == 0 {
		s.X = hop/2 + sim.Time(rng.Int63n(int64(hop)*2))
	}
	if rng.Intn(2) == 0 {
		s.Y = hop/2 + sim.Time(rng.Int63n(int64(hop)*2))
	}
	for i := rng.Intn(4); i > 0; i-- {
		a := addr.NodeID(1 + rng.Intn(topo.Nodes()))
		nbs := topo.Neighbors(a)
		if len(nbs) == 0 {
			continue
		}
		b := nbs[rng.Intn(len(nbs))]
		ax, ay := topo.Coord(a)
		bx, by := topo.Coord(b)
		s.Edges = append(s.Edges, params.EdgeLat{AX: ax, AY: ay, BX: bx, BY: by, Lat: 1 + sim.Time(rng.Int63n(int64(hop)*3))})
	}
	return s
}

// randomPlan draws an armed fault plan: per-traversal drop, corruption,
// and delay rolls plus a handful of link outages with random windows.
func randomPlan(rng *rand.Rand, topo Topology) *faults.Plan {
	plan := &faults.Plan{
		Seed:    rng.Int63(),
		Drop:    rng.Float64() * 0.05,
		Corrupt: rng.Float64() * 0.05,
		Delay:   rng.Float64() * 0.1,
		DelayBy: rng.Int63n(2_000_000),
	}
	for i := rng.Intn(6); i > 0; i-- {
		a := addr.NodeID(1 + rng.Intn(topo.Nodes()))
		nbs := topo.Neighbors(a)
		if len(nbs) == 0 {
			continue
		}
		start := rng.Int63n(200_000_000)
		plan.LinkDowns = append(plan.LinkDowns, faults.LinkWindow{
			From: a, To: nbs[rng.Intn(len(nbs))],
			Window: faults.Window{Start: start, End: start + 1 + rng.Int63n(400_000_000)},
		})
	}
	return plan
}

// TestFabricOracleEquivalence replays seeded random send sequences —
// random src/dst/size/time over mesh shapes from 1×N strips to 32×32,
// with random -linklat tables, with and without an armed fault plan —
// through the dense-table fabric and the map-walk oracle, asserting
// identical Outcomes, identical fabric counters and fault tallies, and
// identical per-link frames, bytes, busy time, and latency on every
// directed link.
func TestFabricOracleEquivalence(t *testing.T) {
	shapes := [][2]int{{1, 2}, {2, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 5}, {4, 4}, {5, 3}, {8, 2}, {16, 16}, {32, 32}}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(12), 1 + rng.Intn(12)})
	}
	var reroutes, drops, unreachable uint64
	for si, shape := range shapes {
		if shape[0]*shape[1] < 2 {
			continue
		}
		for _, armed := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(si)*2 + 1))
			topo, err := NewTopology(shape[0], shape[1])
			if err != nil {
				t.Fatal(err)
			}
			p := params.Default()
			p.LinkLat = randomLinkLat(rng, topo, p.HopLatency)
			var got, want *faults.Injector
			if armed {
				plan := randomPlan(rng, topo)
				got, want = faults.NewInjector(plan), faults.NewInjector(plan)
			}
			f := NewFabric(metrics.NewRegistry(), topo, p, got)
			o := newOracleFabric(topo, p, want)
			now := sim.Time(0)
			for step := 0; step < 400; step++ {
				if rng.Intn(3) == 0 {
					now += sim.Time(rng.Int63n(5_000_000)) // else a same-instant burst
				}
				src := addr.NodeID(1 + rng.Intn(topo.Nodes()))
				dst := addr.NodeID(1 + rng.Intn(topo.Nodes()))
				size := 1 + rng.Intn(5000)
				g, w := f.DeliverOutcome(now, src, dst, size), o.DeliverOutcome(now, src, dst, size)
				if g != w {
					t.Fatalf("%dx%d armed=%v step %d: DeliverOutcome(%d, %d->%d, %dB) = %+v, oracle %+v",
						shape[0], shape[1], armed, step, now, src, dst, size, g, w)
				}
			}
			if f.Delivered != o.Delivered || f.Hops != o.Hops || f.Reroutes != o.Reroutes ||
				f.DetourHops != o.DetourHops || f.Unreachable != o.Unreachable {
				t.Errorf("%dx%d armed=%v: counters (%d %d %d %d %d), oracle (%d %d %d %d %d)",
					shape[0], shape[1], armed, f.Delivered, f.Hops, f.Reroutes, f.DetourHops, f.Unreachable,
					o.Delivered, o.Hops, o.Reroutes, o.DetourHops, o.Unreachable)
			}
			if armed && (got.Drops != want.Drops || got.Corruptions != want.Corruptions || got.Delays != want.Delays) {
				t.Errorf("%dx%d: fault tallies diverged", shape[0], shape[1])
			}
			if armed {
				reroutes, drops, unreachable = reroutes+f.Reroutes, drops+got.Drops, unreachable+f.Unreachable
			}
			if n := len(o.links); f.Links() != n {
				t.Errorf("%dx%d: Links() = %d, oracle has %d", shape[0], shape[1], f.Links(), n)
			}
			for k, ol := range o.links {
				i, ok := f.linkIndex(k.from, k.to)
				if !ok {
					t.Fatalf("%dx%d: no dense link %d->%d", shape[0], shape[1], k.from, k.to)
				}
				l := &f.links[i]
				if l.frames != ol.frames || l.bytes != ol.bytes || l.busy != ol.res.Busy || l.lat != ol.lat {
					t.Errorf("%dx%d armed=%v link %d->%d: (frames %d, bytes %d, busy %d, lat %d), oracle (%d, %d, %d, %d)",
						shape[0], shape[1], armed, k.from, k.to, l.frames, l.bytes, l.busy, l.lat,
						ol.frames, ol.bytes, ol.res.Busy, ol.lat)
				}
			}
		}
	}
	// The armed plans must actually exercise the detour and loss paths.
	if reroutes == 0 || drops == 0 || unreachable == 0 {
		t.Errorf("armed scenarios too tame: %d reroutes, %d drops, %d unreachable", reroutes, drops, unreachable)
	}
}

// TestLinkIndexMatchesNeighbors: the dense index accepts exactly the
// directed mesh edges — including on one-row and one-column meshes,
// where ±1 and ±W coincide or wrap — and rejects everything else.
func TestLinkIndexMatchesNeighbors(t *testing.T) {
	for _, shape := range [][2]int{{1, 5}, {5, 1}, {2, 3}, {4, 4}, {7, 2}} {
		topo, err := NewTopology(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		f := NewFabric(metrics.NewRegistry(), topo, params.Default(), nil)
		seen := map[int]bool{}
		for a := addr.NodeID(0); int(a) <= topo.Nodes()+1; a++ {
			for b := addr.NodeID(0); int(b) <= topo.Nodes()+1; b++ {
				i, ok := f.linkIndex(a, b)
				adjacent := topo.Contains(a) && topo.Contains(b) && topo.Hops(a, b) == 1
				if ok != adjacent {
					t.Fatalf("%dx%d: linkIndex(%d, %d) ok=%v, adjacent=%v", shape[0], shape[1], a, b, ok, adjacent)
				}
				if ok {
					if seen[i] || f.links[i].lat == 0 {
						t.Fatalf("%dx%d: link %d->%d maps to index %d (reused or unbuilt)", shape[0], shape[1], a, b, i)
					}
					seen[i] = true
				}
			}
		}
	}
}

// TestDeliverOutcomeAllocs: a clean corner-to-corner frame on the 32×32
// mesh — 62 hops — walks the dense table without allocating.
func TestDeliverOutcomeAllocs(t *testing.T) {
	topo, err := NewTopology(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(metrics.NewRegistry(), topo, params.Default(), nil)
	src, dst := topo.NodeAt(0, 0), topo.NodeAt(31, 31)
	now := sim.Time(0)
	if avg := testing.AllocsPerRun(1000, func() {
		out := f.DeliverOutcome(now, src, dst, 72)
		if out.Hops != 62 {
			t.Fatalf("corner-to-corner took %d hops, want 62", out.Hops)
		}
		now += 1_000_000
	}); avg != 0 {
		t.Errorf("62-hop DeliverOutcome allocates %.2f/op, want 0", avg)
	}
}
