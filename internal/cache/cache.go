// Package cache models one node's coherent cache domain: a set-
// associative write-back cache per socket with MESI coherence between
// them. This is the *intra-node* protocol the paper keeps; the system's
// whole point is that it never extends beyond the motherboard, however
// much remote memory a region aggregates.
//
// The prototype configures remote (RMC-mapped) ranges write-back
// cacheable, which is why remote lines flow through the same hierarchy —
// and why, with no inter-node coherency, writable remote data restricts
// the application to one core unless a phase is read-only (after a
// flush). FlushAll models exactly that phase transition.
package cache

import (
	"fmt"

	"repro/internal/addr"
)

// State is a MESI line state.
type State uint8

// MESI states.
const (
	// Invalid marks an absent or invalidated line.
	Invalid State = iota
	// Shared lines may be cached read-only by several sockets.
	Shared
	// Exclusive lines are cached by one socket, clean.
	Exclusive
	// Modified lines are cached by one socket, dirty.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Config sizes one socket's cache.
type Config struct {
	// Sets and Ways give the geometry; capacity = Sets*Ways*LineSize.
	Sets, Ways int
	// LineSize is the coherence granule in bytes (a power of two).
	LineSize uint64
}

// DefaultConfig returns a 512 KiB 8-way cache with 64 B lines per socket,
// an Opteron-era L2 stand-in.
func DefaultConfig() Config { return Config{Sets: 1024, Ways: 8, LineSize: 64} }

// Validate reports the first inconsistency in the configuration.
func (c Config) Validate() error {
	switch {
	case c.Sets < 1 || c.Ways < 1:
		return fmt.Errorf("cache: geometry %dx%d invalid", c.Sets, c.Ways)
	case c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	return nil
}

// line is one cache line's tag state.
type line struct {
	tag   addr.Phys // line-aligned address (tags keep the node prefix)
	state State
	lru   uint64
}

// setsPerBlock is how many sets' lines one storage block holds: 6 KiB
// of the default geometry.
const setsPerBlock = 32

// socketCache is one socket's set-associative array. Tag storage is
// materialized per set on first fill, so a run pays for the sets it
// touches, not the full geometry: a 1024-node mesh builds 4096 sockets
// and fills a few percent of their sets. slots, the set→slot index, is
// allocated on the socket's first fill; a slot's lines are carved from
// blocks of setsPerBlock sets that the socket owns. A block is never
// copied once handed out and never shared with another socket, since
// nodes on different shards run concurrently. A never-filled set is
// all Invalid: lookups skip it without touching memory.
type socketCache struct {
	cfg    Config
	slots  []uint32 // set index → 1 + slot; 0 while the set was never filled
	blocks [][]line // slot s: blocks[s/setsPerBlock], ways from (s%setsPerBlock)*Ways
	used   int      // slots handed out
	clock  uint64
}

// set returns the lines of set idx, or nil if it was never filled.
func (c *socketCache) set(idx uint64) []line {
	if idx >= uint64(len(c.slots)) || c.slots[idx] == 0 {
		return nil
	}
	s := uint(c.slots[idx] - 1)
	off := int(s%setsPerBlock) * c.cfg.Ways
	return c.blocks[s/setsPerBlock][off : off+c.cfg.Ways]
}

// materialize hands never-filled set idx its slot, all ways Invalid.
func (c *socketCache) materialize(idx uint64) []line {
	if c.slots == nil {
		c.slots = make([]uint32, c.cfg.Sets)
	}
	if c.used%setsPerBlock == 0 {
		n := min(setsPerBlock, c.cfg.Sets-c.used)
		c.blocks = append(c.blocks, make([]line, n*c.cfg.Ways))
	}
	c.used++
	c.slots[idx] = uint32(c.used)
	return c.set(idx)
}

// find returns the way of set holding tag, or -1.
func find(set []line, tag addr.Phys) int {
	for w := range set {
		if set[w].state != Invalid && set[w].tag == tag {
			return w
		}
	}
	return -1
}

// victim returns the way of a materialized set to fill: an invalid way
// if any, else LRU.
func victim(set []line) int {
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

func (c *socketCache) touch(set []line, w int) {
	c.clock++
	set[w].lru = c.clock
}

// Result describes what one access did, for the timing layer to price.
type Result struct {
	// Hit reports whether the line was already present in the issuing
	// socket's cache in a sufficient state.
	Hit bool
	// Probes counts coherence probes sent to other sockets' caches
	// (invalidations or downgrade snoops).
	Probes int
	// Writebacks counts dirty lines pushed back to memory (evictions and
	// M-line downgrades).
	Writebacks int
	// State is the line's state in the issuing cache afterwards.
	State State
	// Victim is the line evicted from the issuing cache to make room, if
	// VictimDirty or Victim != 0; a dirty victim must be written back to
	// its owning memory (local controller or, for remote lines, the RMC).
	Victim      addr.Phys
	VictimDirty bool
}

// Hierarchy is the coherent domain of one node: one cache per socket,
// MESI between them. It is deliberately *not* aware of other nodes.
type Hierarchy struct {
	cfg     Config
	sockets []socketCache

	// Accesses, Hits, Misses, Probes, Writebacks, and Installs are
	// running totals (Installs are prefetch fills).
	Accesses, Hits, Misses, Probes, Writebacks, Installs uint64
}

// NewHierarchy builds a node's cache domain with one cache per socket.
func NewHierarchy(sockets int, cfg Config) (*Hierarchy, error) {
	if sockets < 1 {
		return nil, fmt.Errorf("cache: %d sockets", sockets)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, sockets: make([]socketCache, sockets)}
	for i := range h.sockets {
		h.sockets[i].cfg = cfg
	}
	return h, nil
}

// Sockets returns the number of caches in the domain.
func (h *Hierarchy) Sockets() int { return len(h.sockets) }

// LineSize returns the coherence granule.
func (h *Hierarchy) LineSize() uint64 { return h.cfg.LineSize }

// setIndex returns the set a line-aligned tag maps to in every socket.
func (h *Hierarchy) setIndex(tag addr.Phys) uint64 {
	return (uint64(tag) / h.cfg.LineSize) % uint64(h.cfg.Sets)
}

// Access performs one load (write=false) or store (write=true) by the
// given socket to the line containing a, running the MESI protocol
// against the sibling sockets. It returns what happened so the timing
// layer can charge probe and writeback costs.
func (h *Hierarchy) Access(socket int, a addr.Phys, write bool) (Result, error) {
	if socket < 0 || socket >= len(h.sockets) {
		return Result{}, fmt.Errorf("cache: socket %d outside domain of %d", socket, len(h.sockets))
	}
	h.Accesses++
	tag := a.Line(h.cfg.LineSize)
	idx := h.setIndex(tag)
	own := &h.sockets[socket]
	set := own.set(idx)
	var res Result

	if w := find(set, tag); w >= 0 {
		st := set[w].state
		if !write || st == Modified {
			// Plain hit.
			res.Hit = true
			res.State = st
			own.touch(set, w)
			h.Hits++
			return res, nil
		}
		if st == Exclusive {
			// Silent E->M upgrade.
			set[w].state = Modified
			own.touch(set, w)
			res.Hit = true
			res.State = Modified
			h.Hits++
			return res, nil
		}
		// S->M upgrade: invalidate the other sharers.
		res.Probes = h.invalidateOthers(socket, idx, tag)
		set[w].state = Modified
		own.touch(set, w)
		res.Hit = true
		res.State = Modified
		h.Hits++
		h.Probes += uint64(res.Probes)
		return res, nil
	}

	// Miss: consult the siblings.
	h.Misses++
	sharers := 0
	for s := range h.sockets {
		if s == socket {
			continue
		}
		peer := h.sockets[s].set(idx)
		if w := find(peer, tag); w >= 0 {
			res.Probes++
			if write {
				if peer[w].state == Modified {
					res.Writebacks++ // dirty data forwarded/written back
				}
				peer[w].state = Invalid
			} else {
				if peer[w].state == Modified {
					res.Writebacks++
				}
				peer[w].state = Shared
				sharers++
			}
		}
	}

	// Fill into our cache, possibly evicting.
	if set == nil {
		set = own.materialize(idx)
	}
	w := victim(set)
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
	set[w] = line{tag: tag, state: newState}
	own.touch(set, w)
	res.State = newState
	h.Probes += uint64(res.Probes)
	h.Writebacks += uint64(res.Writebacks)
	return res, nil
}

func (h *Hierarchy) invalidateOthers(socket int, idx uint64, tag addr.Phys) int {
	probes := 0
	for s := range h.sockets {
		if s == socket {
			continue
		}
		peer := h.sockets[s].set(idx)
		if w := find(peer, tag); w >= 0 {
			peer[w].state = Invalid
			probes++
		}
	}
	return probes
}

// Install places a line into a socket's cache in Exclusive state — a
// prefetch fill. If any socket already holds the line the install is a
// no-op (prefetching must never disturb the coherence protocol). The
// result carries victim information so a displaced dirty line can be
// written back. Installs do not count as accesses or hits.
func (h *Hierarchy) Install(socket int, a addr.Phys) (Result, error) {
	if socket < 0 || socket >= len(h.sockets) {
		return Result{}, fmt.Errorf("cache: socket %d outside domain of %d", socket, len(h.sockets))
	}
	tag := a.Line(h.cfg.LineSize)
	idx := h.setIndex(tag)
	for s := range h.sockets {
		if find(h.sockets[s].set(idx), tag) >= 0 {
			return Result{Hit: true, State: Shared}, nil
		}
	}
	own := &h.sockets[socket]
	set := own.set(idx)
	if set == nil {
		set = own.materialize(idx)
	}
	w := victim(set)
	var res Result
	if set[w].state != Invalid {
		res.Victim = set[w].tag
		if set[w].state == Modified {
			res.Writebacks++
			res.VictimDirty = true
			h.Writebacks++
		}
	}
	set[w] = line{tag: tag, state: Exclusive}
	own.touch(set, w)
	res.State = Exclusive
	h.Installs++
	return res, nil
}

// Present reports whether any socket currently caches the line.
func (h *Hierarchy) Present(a addr.Phys) bool {
	tag := a.Line(h.cfg.LineSize)
	idx := h.setIndex(tag)
	for s := range h.sockets {
		if find(h.sockets[s].set(idx), tag) >= 0 {
			return true
		}
	}
	return false
}

// StateIn returns the line state in one socket's cache, for tests and
// introspection.
func (h *Hierarchy) StateIn(socket int, a addr.Phys) State {
	tag := a.Line(h.cfg.LineSize)
	set := h.sockets[socket].set(h.setIndex(tag))
	if w := find(set, tag); w >= 0 {
		return set[w].state
	}
	return Invalid
}

// FlushAll writes back and invalidates every line in the domain,
// returning the number of dirty lines written back. The prototype does
// this between a write phase and a read-only parallel phase, after which
// several threads may cache remote data safely. Sets keep their storage:
// a flushed set is all Invalid, like one never filled.
func (h *Hierarchy) FlushAll() int {
	dirty := 0
	for s := range h.sockets {
		for _, b := range h.sockets[s].blocks {
			for i := range b {
				if b[i].state == Modified {
					dirty++
				}
				b[i].state = Invalid
			}
		}
	}
	h.Writebacks += uint64(dirty)
	return dirty
}

// HitRate returns the fraction of accesses that hit.
func (h *Hierarchy) HitRate() float64 {
	if h.Accesses == 0 {
		return 0
	}
	return float64(h.Hits) / float64(h.Accesses)
}
