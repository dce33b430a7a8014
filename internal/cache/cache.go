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

// MaxSets is the most sets a Config may have. A socket's set→slot index
// holds 16 bits per set: 0 marks a never-filled set, one bit tells a
// full slot from a one-way slot, and the other 15 number the slot.
// Either pool needs at most one slot per set, so the index addresses
// any geometry up to MaxSets, whatever its ways.
const MaxSets = 1<<15 - 1

// SetsError is Validate's refusal of a geometry with more sets than the
// set→slot index addresses.
type SetsError struct{ Sets int }

func (e *SetsError) Error() string {
	return fmt.Sprintf("cache: %d sets exceed the %d a socket's set index addresses", e.Sets, MaxSets)
}

// Validate reports the first inconsistency in the configuration.
func (c Config) Validate() error {
	switch {
	case c.Sets < 1 || c.Ways < 1:
		return fmt.Errorf("cache: geometry %dx%d invalid", c.Sets, c.Ways)
	case c.Sets > MaxSets:
		return &SetsError{Sets: c.Sets}
	case c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	return nil
}

// line is one cache line's tag state in 16 bytes: the tag, and the LRU
// stamp with the MESI state packed into its low stateBits bits. A
// socket's clock would need 2^62 touches to overflow the stamp.
type line struct {
	tag  addr.Phys // line-aligned address (tags keep the node prefix)
	meta uint64    // lru<<stateBits | state
}

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

func (l *line) state() State { return State(l.meta & stateMask) }

// Pool geometry. A one-way block holds onesPerBlock single-line slots
// (1 KiB); a full block holds fullsPerBlock sets of Ways lines (2 KiB
// of the default geometry).
const (
	onesPerBlock  = 64
	fullsPerBlock = 16
	// fullSlot marks a full slot in the set→slot index.
	fullSlot = 1 << 15
)

// socketCache is one socket's set-associative array. Tag storage is
// materialized per line: a run pays for the lines it fills, not for the
// geometry or for every way of the sets it touches. A 1024-node mesh
// builds 4096 sockets, and its traffic puts about one line in each set
// it touches.
//
// slots, the set→slot index, is allocated on the socket's first fill.
// A set's first fill hands it a one-way slot. The fill of a second
// distinct line promotes it to a full slot of Ways lines: its line
// moves to way 0, and the one-way slot, zeroed, joins a free list that
// the next new set pops. A set is never demoted, and Ways=1 never
// promotes. Slots are carved from fixed blocks that the socket owns: a
// block is never copied once handed out and never shared with another
// socket, since nodes on different shards run concurrently. A
// never-filled set, and the ways a one-way set lacks, read as Invalid:
// lookups skip them without touching memory.
type socketCache struct {
	sets  int
	ways  uint
	slots []uint16 // set index → 0 (never filled), 1+one-way slot, or fullSlot|full slot
	ones  [][]line // one-way slot s: ones[s/onesPerBlock][s%onesPerBlock]
	fulls [][]line // full slot s: fulls[s/fullsPerBlock], ways from (s%fullsPerBlock)*Ways
	clock uint64
	// nOnes and nFulls count the slots each pool has handed out; free
	// heads the list of freed one-way slots (1+slot, 0 when empty),
	// linked through their tags.
	nOnes, nFulls, free uint16
}

// set returns the lines of set idx — one for a one-way set, Ways for a
// full one — or nil if it was never filled.
func (c *socketCache) set(idx uint64) []line {
	if idx >= uint64(len(c.slots)) {
		return nil
	}
	h := uint(c.slots[idx])
	if h >= fullSlot {
		s := h - fullSlot
		off := s % fullsPerBlock * c.ways
		return c.fulls[s/fullsPerBlock][off : off+c.ways]
	}
	if h == 0 {
		return nil
	}
	s := h - 1
	return c.ones[s/onesPerBlock][s%onesPerBlock:][:1]
}

// materialize hands never-filled set idx a one-way slot, Invalid: a
// freed one if any, else the pool's next.
func (c *socketCache) materialize(idx uint64) []line {
	if c.slots == nil {
		c.slots = make([]uint16, c.sets)
	}
	h := c.free
	if h != 0 {
		s := h - 1
		l := &c.ones[s/onesPerBlock][s%onesPerBlock]
		c.free = uint16(l.tag)
		*l = line{}
	} else {
		if c.nOnes%onesPerBlock == 0 {
			c.ones = append(c.ones, make([]line, min(onesPerBlock, c.sets-int(c.nOnes))))
		}
		c.nOnes++
		h = c.nOnes
	}
	c.slots[idx] = h
	return c.set(idx)
}

// promote moves one-way set idx into a full slot: its line becomes way
// 0, the other ways Invalid, and the one-way slot joins the free list
// zeroed, so FlushAll never counts it.
func (c *socketCache) promote(idx uint64, one []line) []line {
	if c.nFulls%fullsPerBlock == 0 {
		c.fulls = append(c.fulls, make([]line, uint(min(fullsPerBlock, c.sets-int(c.nFulls)))*c.ways))
	}
	h := c.slots[idx]
	c.slots[idx] = fullSlot | c.nFulls
	c.nFulls++
	set := c.set(idx)
	set[0] = one[0]
	one[0] = line{tag: addr.Phys(c.free)}
	c.free = h
	return set
}

// fillWay returns the way of set idx that a new line goes into and the
// set's lines. It materializes a never-filled set, and promotes a
// one-way set whose line is valid: the ways a one-way set lacks count
// as Invalid, so the eager victim is way 1, which only promotion
// reaches.
func (c *socketCache) fillWay(idx uint64, set []line) ([]line, int) {
	if set == nil {
		set = c.materialize(idx)
	} else if uint(len(set)) < c.ways && set[0].state() != Invalid {
		set = c.promote(idx, set)
	}
	return set, victim(set)
}

// find returns the way of set holding tag, or -1.
func find(set []line, tag addr.Phys) int {
	for w := range set {
		if set[w].tag == tag && set[w].meta&stateMask != uint64(Invalid) {
			return w
		}
	}
	return -1
}

// victim returns the way of a set to fill: the first Invalid way in
// index order, else LRU. The stamps of a set's valid lines are
// distinct, so ordering by the packed meta word orders by stamp.
func victim(set []line) int {
	best, bestMeta := -1, ^uint64(0)
	for w := range set {
		m := set[w].meta
		if m&stateMask == uint64(Invalid) {
			return w
		}
		if m < bestMeta {
			best, bestMeta = w, m
		}
	}
	return best
}

// touch stamps way w of set as the socket's most recent use, in state s.
func (c *socketCache) touch(set []line, w int, s State) {
	c.clock++
	set[w].meta = c.clock<<stateBits | uint64(s)
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
		h.sockets[i].sets, h.sockets[i].ways = cfg.Sets, uint(cfg.Ways)
	}
	return h, nil
}

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
		st := set[w].state()
		if !write || st == Modified {
			// Plain hit.
			res.Hit = true
			res.State = st
			own.touch(set, w, st)
			h.Hits++
			return res, nil
		}
		if st == Exclusive {
			// Silent E->M upgrade.
			own.touch(set, w, Modified)
			res.Hit = true
			res.State = Modified
			h.Hits++
			return res, nil
		}
		// S->M upgrade: invalidate the other sharers.
		res.Probes = h.invalidateOthers(socket, idx, tag)
		own.touch(set, w, Modified)
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
			if peer[w].state() == Modified {
				res.Writebacks++ // dirty data forwarded/written back
			}
			if write {
				peer[w].meta &^= stateMask // Invalid
			} else {
				peer[w].meta = peer[w].meta&^stateMask | uint64(Shared)
				sharers++
			}
		}
	}

	// Fill into our cache, possibly evicting.
	set, w := own.fillWay(idx, set)
	if st := set[w].state(); st != Invalid {
		res.Victim = set[w].tag
		if st == Modified {
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
	set[w].tag = tag
	own.touch(set, w, newState)
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
			peer[w].meta &^= stateMask // Invalid
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
	set, w := own.fillWay(idx, own.set(idx))
	var res Result
	if st := set[w].state(); st != Invalid {
		res.Victim = set[w].tag
		if st == Modified {
			res.Writebacks++
			res.VictimDirty = true
			h.Writebacks++
		}
	}
	set[w].tag = tag
	own.touch(set, w, Exclusive)
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
		return set[w].state()
	}
	return Invalid
}

// FlushAll writes back and invalidates every line in the domain,
// returning the number of dirty lines written back. The prototype does
// this between a write phase and a read-only parallel phase, after which
// several threads may cache remote data safely. Sets keep their storage:
// a flushed set is all Invalid, like one never filled. Freed one-way
// slots are zero, so the walk over both pools counts only live lines.
func (h *Hierarchy) FlushAll() int {
	dirty := 0
	for s := range h.sockets {
		c := &h.sockets[s]
		for _, pool := range [2][][]line{c.ones, c.fulls} {
			for _, b := range pool {
				for i := range b {
					if b[i].state() == Modified {
						dirty++
					}
					b[i].meta &^= stateMask
				}
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
