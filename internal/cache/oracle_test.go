package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// refLine is the oracle's line: tag, state and LRU stamp as separate
// fields, so the packed line cannot leak into the reference.
type refLine struct {
	tag   addr.Phys
	state State
	lru   uint64
}

// refSocket is the eager tag store the lazy store replaced: every
// socket's full Sets×Ways array allocated up front, one flat set-major
// slice. It is kept as the oracle the lazy store must match bit for bit.
type refSocket struct {
	cfg   Config
	lines []refLine
	clock uint64
}

func (c *refSocket) setOf(tag addr.Phys) []refLine {
	idx := (uint64(tag) / c.cfg.LineSize) % uint64(c.cfg.Sets)
	ways := uint64(c.cfg.Ways)
	return c.lines[idx*ways : idx*ways+ways]
}

func (c *refSocket) find(tag addr.Phys) int {
	set := c.setOf(tag)
	for w := range set {
		if set[w].state != Invalid && set[w].tag == tag {
			return w
		}
	}
	return -1
}

func (c *refSocket) victim(tag addr.Phys) int {
	set := c.setOf(tag)
	best, bestLRU := -1, ^uint64(0)
	for w := range set {
		if set[w].state == Invalid {
			return w
		}
		if set[w].lru < bestLRU {
			best, bestLRU = w, set[w].lru
		}
	}
	return best
}

func (c *refSocket) touch(tag addr.Phys, w int) {
	c.clock++
	c.setOf(tag)[w].lru = c.clock
}

// refHierarchy is Hierarchy over the eager store, protocol unchanged.
type refHierarchy struct {
	cfg                                                  Config
	sockets                                              []*refSocket
	Accesses, Hits, Misses, Probes, Writebacks, Installs uint64
}

func newRefHierarchy(sockets int, cfg Config) *refHierarchy {
	h := &refHierarchy{cfg: cfg}
	for i := 0; i < sockets; i++ {
		h.sockets = append(h.sockets, &refSocket{cfg: cfg, lines: make([]refLine, cfg.Sets*cfg.Ways)})
	}
	return h
}

func (h *refHierarchy) Access(socket int, a addr.Phys, write bool) (Result, error) {
	if socket < 0 || socket >= len(h.sockets) {
		return Result{}, fmt.Errorf("cache: socket %d outside domain of %d", socket, len(h.sockets))
	}
	h.Accesses++
	tag := a.Line(h.cfg.LineSize)
	own := h.sockets[socket]
	var res Result
	if w := own.find(tag); w >= 0 {
		set := own.setOf(tag)
		st := set[w].state
		if !write || st == Modified {
			res.Hit = true
			res.State = st
			own.touch(tag, w)
			h.Hits++
			return res, nil
		}
		if st == Exclusive {
			set[w].state = Modified
			own.touch(tag, w)
			res.Hit = true
			res.State = Modified
			h.Hits++
			return res, nil
		}
		res.Probes = h.invalidateOthers(socket, tag)
		set[w].state = Modified
		own.touch(tag, w)
		res.Hit = true
		res.State = Modified
		h.Hits++
		h.Probes += uint64(res.Probes)
		return res, nil
	}
	h.Misses++
	sharers := 0
	for s, c := range h.sockets {
		if s == socket {
			continue
		}
		if w := c.find(tag); w >= 0 {
			set := c.setOf(tag)
			res.Probes++
			if write {
				if set[w].state == Modified {
					res.Writebacks++
				}
				set[w].state = Invalid
			} else {
				if set[w].state == Modified {
					res.Writebacks++
				}
				set[w].state = Shared
				sharers++
			}
		}
	}
	w := own.victim(tag)
	set := own.setOf(tag)
	if set[w].state != Invalid {
		res.Victim = set[w].tag
		if set[w].state == Modified {
			res.Writebacks++
			res.VictimDirty = true
		}
	}
	newState := Exclusive
	if write {
		newState = Modified
	} else if sharers > 0 {
		newState = Shared
	}
	set[w] = refLine{tag: tag, state: newState}
	own.touch(tag, w)
	res.State = newState
	h.Probes += uint64(res.Probes)
	h.Writebacks += uint64(res.Writebacks)
	return res, nil
}

func (h *refHierarchy) invalidateOthers(socket int, tag addr.Phys) int {
	probes := 0
	for s, c := range h.sockets {
		if s == socket {
			continue
		}
		if w := c.find(tag); w >= 0 {
			c.setOf(tag)[w].state = Invalid
			probes++
		}
	}
	return probes
}

func (h *refHierarchy) Install(socket int, a addr.Phys) (Result, error) {
	if socket < 0 || socket >= len(h.sockets) {
		return Result{}, fmt.Errorf("cache: socket %d outside domain of %d", socket, len(h.sockets))
	}
	tag := a.Line(h.cfg.LineSize)
	for _, c := range h.sockets {
		if c.find(tag) >= 0 {
			return Result{Hit: true, State: Shared}, nil
		}
	}
	own := h.sockets[socket]
	w := own.victim(tag)
	set := own.setOf(tag)
	var res Result
	if set[w].state != Invalid {
		res.Victim = set[w].tag
		if set[w].state == Modified {
			res.Writebacks++
			res.VictimDirty = true
			h.Writebacks++
		}
	}
	set[w] = refLine{tag: tag, state: Exclusive}
	own.touch(tag, w)
	res.State = Exclusive
	h.Installs++
	return res, nil
}

func (h *refHierarchy) Present(a addr.Phys) bool {
	tag := a.Line(h.cfg.LineSize)
	for _, c := range h.sockets {
		if c.find(tag) >= 0 {
			return true
		}
	}
	return false
}

func (h *refHierarchy) StateIn(socket int, a addr.Phys) State {
	tag := a.Line(h.cfg.LineSize)
	if w := h.sockets[socket].find(tag); w >= 0 {
		return h.sockets[socket].setOf(tag)[w].state
	}
	return Invalid
}

func (h *refHierarchy) FlushAll() int {
	dirty := 0
	for _, c := range h.sockets {
		for i := range c.lines {
			if c.lines[i].state == Modified {
				dirty++
			}
			c.lines[i].state = Invalid
		}
	}
	h.Writebacks += uint64(dirty)
	return dirty
}

// sameStore compares every line of every set — tag, state and LRU
// stamp — plus each socket's clock and the running totals. A set the
// lazy store never materialized, and the ways a one-way set lacks, must
// equal the oracle's untouched zero lines.
func sameStore(t *testing.T, step int, got *Hierarchy, want *refHierarchy) {
	t.Helper()
	type totals struct{ acc, hit, miss, probe, wb, inst uint64 }
	g := totals{got.Accesses, got.Hits, got.Misses, got.Probes, got.Writebacks, got.Installs}
	w := totals{want.Accesses, want.Hits, want.Misses, want.Probes, want.Writebacks, want.Installs}
	if g != w {
		t.Fatalf("step %d: totals %+v, oracle %+v", step, g, w)
	}
	for s := range got.sockets {
		gs, ws := &got.sockets[s], want.sockets[s]
		if gs.clock != ws.clock {
			t.Fatalf("step %d: socket %d clock %d, oracle %d", step, s, gs.clock, ws.clock)
		}
		for idx := 0; idx < got.cfg.Sets; idx++ {
			lines := gs.set(uint64(idx))
			if n := len(lines); n != 0 && n != 1 && n != got.cfg.Ways {
				t.Fatalf("step %d: socket %d set %d has %d ways, want 0, 1 or %d", step, s, idx, n, got.cfg.Ways)
			}
			ref := ws.lines[idx*got.cfg.Ways : (idx+1)*got.cfg.Ways]
			for way := range ref {
				var l refLine
				if way < len(lines) {
					l = refLine{tag: lines[way].tag, state: lines[way].state(), lru: lines[way].meta >> stateBits}
				}
				if l != ref[way] {
					t.Fatalf("step %d: socket %d set %d way %d = %+v, oracle %+v", step, s, idx, way, l, ref[way])
				}
			}
		}
	}
}

// TestTagStoreMatchesEagerOracle drives the lazy store and the eager
// oracle with the same sequences of Access, Install, Present, StateIn
// and FlushAll, and requires identical results, line states and
// totals. Seeded random sequences cover several geometries (Ways=1 and
// a set count that is not a power of two included), socket counts and
// line sizes. Scripted ones pin each transition of a set's storage:
// its first line, the second line that promotes it, a FlushAll right
// after a promotion, and a new set that reuses the freed one-way slot.
func TestTagStoreMatchesEagerOracle(t *testing.T) {
	for _, geo := range [][2]int{{1, 1}, {4, 2}, {48, 3}, {64, 1}, {64, 4}, {1024, 8}} {
		for _, sockets := range []int{1, 4} {
			for _, lineSize := range []uint64{1, 64} {
				cfg := Config{Sets: geo[0], Ways: geo[1], LineSize: lineSize}
				t.Run(fmt.Sprintf("%dx%d/s%d/l%d", cfg.Sets, cfg.Ways, sockets, lineSize), func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						runOracle(t, seed, sockets, cfg)
					}
				})
			}
		}
	}
	for _, sc := range oracleScripts {
		t.Run("script/"+sc.name, func(t *testing.T) { runScript(t, sc) })
	}
}

// scriptOp is one step of a scripted oracle run: an Access (or, with
// install, an Install) by socket to line ln of a 64 B-line cache, or a
// FlushAll. pools, when set, is the issuing socket's {one-way slots
// handed out, full slots handed out, free list non-empty (1 or 0)}
// after the step.
type scriptOp struct {
	socket  int
	ln      uint64
	write   bool
	install bool
	flush   bool
	pools   *[3]int
}

var oracleScripts = []struct {
	name string
	cfg  Config
	ops  []scriptOp
}{
	{
		// Sets 4, ways 4: lines 1, 5, 9 all map to set 1.
		name: "promote-flush-reuse",
		cfg:  Config{Sets: 4, Ways: 4, LineSize: 64},
		ops: []scriptOp{
			{socket: 0, ln: 1, write: true, pools: &[3]int{1, 0, 0}}, // set 1: one line, Modified
			{socket: 0, ln: 1, write: true, pools: &[3]int{1, 0, 0}}, // a hit keeps it one-way
			{socket: 0, ln: 5, pools: &[3]int{1, 1, 1}},              // the second line promotes it
			{flush: true}, // the freed slot must not count as dirty
			{socket: 0, ln: 2, pools: &[3]int{1, 1, 0}},              // set 2 reuses the freed slot
			{socket: 0, ln: 9, write: true},                          // refills set 1's flushed way 0
			{socket: 0, ln: 6, write: true, pools: &[3]int{1, 2, 1}}, // set 2 promotes, frees again
			{socket: 1, ln: 6, pools: &[3]int{1, 0, 0}},              // a peer's copy: socket 1 one-way
			{socket: 0, ln: 3, install: true, pools: &[3]int{1, 2, 0}},
			{socket: 0, ln: 7, install: true, pools: &[3]int{1, 3, 1}},
			{flush: true},
		},
	},
	{
		// A one-way set whose line a peer invalidated refills in place.
		name: "invalidated-one-way",
		cfg:  Config{Sets: 4, Ways: 4, LineSize: 64},
		ops: []scriptOp{
			{socket: 0, ln: 1},
			{socket: 1, ln: 1, write: true}, // invalidates socket 0's copy
			{socket: 0, ln: 5, pools: &[3]int{1, 0, 0}},
			{socket: 0, ln: 9, pools: &[3]int{1, 1, 1}},
		},
	},
	{
		// Ways=1: the one-way slot is the whole set; a second line
		// evicts the first instead of promoting.
		name: "one-way-geometry",
		cfg:  Config{Sets: 4, Ways: 1, LineSize: 64},
		ops: []scriptOp{
			{socket: 0, ln: 1, write: true, pools: &[3]int{1, 0, 0}},
			{socket: 0, ln: 5, pools: &[3]int{1, 0, 0}},
			{socket: 0, ln: 9, install: true, pools: &[3]int{1, 0, 0}},
			{socket: 0, ln: 2, pools: &[3]int{2, 0, 0}},
			{flush: true},
		},
	},
}

func runScript(t *testing.T, sc struct {
	name string
	cfg  Config
	ops  []scriptOp
}) {
	got, err := NewHierarchy(2, sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefHierarchy(2, sc.cfg)
	for step, op := range sc.ops {
		a := addr.Phys(op.ln * sc.cfg.LineSize)
		switch {
		case op.flush:
			if g, w := got.FlushAll(), want.FlushAll(); g != w {
				t.Fatalf("step %d: FlushAll = %d, oracle %d", step, g, w)
			}
		case op.install:
			gr, _ := got.Install(op.socket, a)
			wr, _ := want.Install(op.socket, a)
			if gr != wr {
				t.Fatalf("step %d: Install(%d, %v) = %+v, oracle %+v", step, op.socket, a, gr, wr)
			}
		default:
			gr, _ := got.Access(op.socket, a, op.write)
			wr, _ := want.Access(op.socket, a, op.write)
			if gr != wr {
				t.Fatalf("step %d: Access(%d, %v, %v) = %+v, oracle %+v", step, op.socket, a, op.write, gr, wr)
			}
		}
		sameStore(t, step, got, want)
		if op.pools != nil {
			c := &got.sockets[op.socket]
			free := 0
			if c.free != 0 {
				free = 1
			}
			if p := [3]int{int(c.nOnes), int(c.nFulls), free}; p != *op.pools {
				t.Fatalf("step %d: socket %d pools {ones, fulls, free} = %v, want %v", step, op.socket, p, *op.pools)
			}
		}
	}
}

func runOracle(t *testing.T, seed int64, sockets int, cfg Config) {
	t.Helper()
	got, err := NewHierarchy(sockets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefHierarchy(sockets, cfg)
	rng := rand.New(rand.NewSource(seed))
	// Half the lines crowd into a few hot sets, so hits, upgrades and
	// LRU evictions are common; the rest spread over every set.
	hot := min(cfg.Sets, 8)
	addrOf := func() addr.Phys {
		set := rng.Intn(cfg.Sets)
		if rng.Intn(2) == 0 {
			set = rng.Intn(hot)
		}
		ln := uint64(set) + uint64(cfg.Sets)*uint64(rng.Intn(2*cfg.Ways+1))
		a := addr.Phys(ln*cfg.LineSize + uint64(rng.Int63n(int64(cfg.LineSize))))
		if rng.Intn(4) == 0 {
			a = a.WithNode(addr.NodeID(1 + rng.Intn(3)))
		}
		return a
	}
	steps := 4000
	if cfg.Sets >= 1024 {
		steps = 20000
	}
	evictions := 0
	for step := 0; step < steps; step++ {
		socket := rng.Intn(sockets)
		if rng.Intn(200) == 0 {
			socket = []int{-1, sockets}[rng.Intn(2)] // outside the domain
		}
		a := addrOf()
		switch op := rng.Intn(100); {
		case op < 70:
			write := rng.Intn(3) == 0
			gr, gerr := got.Access(socket, a, write)
			wr, werr := want.Access(socket, a, write)
			if gr.Victim != 0 || gr.VictimDirty {
				evictions++
			}
			if gr != wr || (gerr == nil) != (werr == nil) {
				t.Fatalf("seed %d step %d: Access(%d, %v, %v) = %+v, %v; oracle %+v, %v", seed, step, socket, a, write, gr, gerr, wr, werr)
			}
		case op < 85:
			gr, gerr := got.Install(socket, a)
			wr, werr := want.Install(socket, a)
			if gr != wr || (gerr == nil) != (werr == nil) {
				t.Fatalf("seed %d step %d: Install(%d, %v) = %+v, %v; oracle %+v, %v", seed, step, socket, a, gr, gerr, wr, werr)
			}
		case op < 92:
			if g, w := got.Present(a), want.Present(a); g != w {
				t.Fatalf("seed %d step %d: Present(%v) = %v, oracle %v", seed, step, a, g, w)
			}
		case op < 99:
			s := rng.Intn(sockets)
			if g, w := got.StateIn(s, a), want.StateIn(s, a); g != w {
				t.Fatalf("seed %d step %d: StateIn(%d, %v) = %v, oracle %v", seed, step, s, a, g, w)
			}
		default:
			if g, w := got.FlushAll(), want.FlushAll(); g != w {
				t.Fatalf("seed %d step %d: FlushAll = %d, oracle %d", seed, step, g, w)
			}
		}
		if step%500 == 0 || step == steps-1 {
			sameStore(t, step, got, want)
		}
	}
	if want.Hits == 0 || want.Misses == 0 || evictions == 0 || (sockets > 1 && want.Probes == 0) {
		t.Fatalf("seed %d: sequence left a path unexercised: %d hits, %d misses, %d evictions, %d probes",
			seed, want.Hits, want.Misses, evictions, want.Probes)
	}
}
