// Package swap implements the remote-swap comparator the paper measures
// against (and its disk-swap ancestor): page-granularity paging where a
// touched non-resident page costs an OS trap plus a whole-page transfer,
// the page then stays resident until LRU eviction, and dirty evictions
// pay the transfer again on the way out. This is the mechanism behind
// Equation (1); when the working set outgrows residency, the thrashing
// the paper's Figures 10 and 11 show falls out by construction.
package swap

import (
	"fmt"

	"repro/internal/params"
)

// nilSlot terminates the intrusive list and the free list.
const nilSlot = int32(-1)

// pageEntry is one resident-page slot. Entries live in a flat array
// preallocated at construction; prev/next are slot indexes, so steady-
// state Touch traffic performs no allocation and no pointer-heavy list
// manipulation.
type pageEntry struct {
	page       uint64
	prev, next int32
	dirty      bool
}

// PageCache is an LRU set of resident pages with dirty tracking. The
// recency order is an intrusive doubly-linked list threaded through a
// fixed slot array (head = MRU, tail = LRU); page → slot resolution is
// an open-addressed linear-probing table of slot indexes — at most
// capacity live keys in a table at most half full, so probes are short
// and the hot Touch path never calls into the runtime map. Eviction
// order is identical to the classic container/list implementation this
// replaced — the least recently touched page always goes first.
type PageCache struct {
	capacity   int
	entries    []pageEntry
	idx        []int32 // open-addressed page→slot table; nilSlot = empty
	idxShift   uint    // 64 - log2(len(idx)): multiplicative-hash shift
	resident   int
	head, tail int32
	free       int32 // next-linked free list of unused slots

	// Hits, Misses, Evictions, and DirtyEvictions count events.
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// NewPageCache builds a cache holding capacity pages.
func NewPageCache(capacity int) (*PageCache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("swap: page cache capacity %d", capacity)
	}
	// Size the index at the next power of two ≥ 2×capacity (min 16) so
	// its load factor never exceeds one half.
	idxLen, shift := 16, uint(60)
	for idxLen < 2*capacity {
		idxLen *= 2
		shift--
	}
	c := &PageCache{
		capacity: capacity,
		entries:  make([]pageEntry, capacity),
		idx:      make([]int32, idxLen),
		idxShift: shift,
	}
	c.reset()
	return c, nil
}

// reset empties the list, the index, and chains every slot onto the
// free list.
func (c *PageCache) reset() {
	c.head, c.tail = nilSlot, nilSlot
	c.resident = 0
	for i := range c.idx {
		c.idx[i] = nilSlot
	}
	for i := range c.entries {
		c.entries[i].next = int32(i) + 1
	}
	c.entries[len(c.entries)-1].next = nilSlot
	c.free = 0
}

// idxHome returns a page's preferred index position (Fibonacci
// multiplicative hash; the probe sequence walks forward from here).
func (c *PageCache) idxHome(page uint64) uint64 {
	return (page * 0x9E3779B97F4A7C15) >> c.idxShift
}

// idxLookup returns the slot holding page, or nilSlot.
func (c *PageCache) idxLookup(page uint64) int32 {
	mask := uint64(len(c.idx) - 1)
	for i := c.idxHome(page); ; i = (i + 1) & mask {
		s := c.idx[i]
		if s == nilSlot {
			return nilSlot
		}
		if c.entries[s].page == page {
			return s
		}
	}
}

// idxInsert records page → slot. The table is never more than half
// full, so a free position always exists.
func (c *PageCache) idxInsert(page uint64, slot int32) {
	mask := uint64(len(c.idx) - 1)
	i := c.idxHome(page)
	for c.idx[i] != nilSlot {
		i = (i + 1) & mask
	}
	c.idx[i] = slot
}

// idxDelete removes page from the table by backward-shift deletion,
// keeping every remaining entry reachable from its home position
// without tombstones.
func (c *PageCache) idxDelete(page uint64) {
	mask := uint64(len(c.idx) - 1)
	i := c.idxHome(page)
	for {
		s := c.idx[i]
		if s == nilSlot {
			return // not present
		}
		if c.entries[s].page == page {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		s := c.idx[j]
		if s == nilSlot {
			break
		}
		// Shift the entry at j into the hole at i unless its home lies
		// cyclically inside (i, j] — moving such an entry before its home
		// would make it unreachable.
		h := c.idxHome(c.entries[s].page)
		if (j-h)&mask >= (j-i)&mask {
			c.idx[i] = s
			i = j
		}
	}
	c.idx[i] = nilSlot
}

// Resident returns the current resident-page count.
func (c *PageCache) Resident() int { return c.resident }

// TouchResult describes what one page touch did.
type TouchResult struct {
	Hit bool
	// Evicted and EvictedDirty describe the page pushed out, if any.
	Evicted      uint64
	DidEvict     bool
	EvictedDirty bool
}

// moveToFront makes slot the MRU entry.
func (c *PageCache) moveToFront(slot int32) {
	if c.head == slot {
		return
	}
	e := &c.entries[slot]
	// Unlink (slot is not the head, so it has a prev).
	c.entries[e.prev].next = e.next
	if e.next != nilSlot {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	// Relink at the head.
	e.prev = nilSlot
	e.next = c.head
	c.entries[c.head].prev = slot
	c.head = slot
}

// Touch accesses a page, faulting it in if absent and evicting LRU if
// over capacity. write marks the page dirty. A touch of the MRU page,
// the common case for node visits, line fills and streams, is answered
// before the index probe: it moves nothing, so only the hit count and
// the dirty bit change.
func (c *PageCache) Touch(page uint64, write bool) TouchResult {
	if h := c.head; h != nilSlot && c.entries[h].page == page {
		if write {
			c.entries[h].dirty = true
		}
		c.Hits++
		return TouchResult{Hit: true}
	}
	if slot := c.idxLookup(page); slot != nilSlot {
		c.moveToFront(slot)
		if write {
			c.entries[slot].dirty = true
		}
		c.Hits++
		return TouchResult{Hit: true}
	}
	c.Misses++
	var res TouchResult
	if c.resident >= c.capacity {
		victim := c.tail
		e := &c.entries[victim]
		res.Evicted, res.DidEvict, res.EvictedDirty = e.page, true, e.dirty
		c.tail = e.prev
		if c.tail != nilSlot {
			c.entries[c.tail].next = nilSlot
		} else {
			c.head = nilSlot
		}
		c.idxDelete(e.page)
		c.resident--
		e.next = c.free
		c.free = victim
		c.Evictions++
		if res.EvictedDirty {
			c.DirtyEvictions++
		}
	}
	slot := c.free
	c.free = c.entries[slot].next
	c.entries[slot] = pageEntry{page: page, prev: nilSlot, next: c.head, dirty: write}
	if c.head != nilSlot {
		c.entries[c.head].prev = slot
	} else {
		c.tail = slot
	}
	c.head = slot
	c.idxInsert(page, slot)
	c.resident++
	return res
}

// Flush drops every resident page, returning how many were dirty.
func (c *PageCache) Flush() int {
	dirty := 0
	for slot := c.head; slot != nilSlot; slot = c.entries[slot].next {
		if c.entries[slot].dirty {
			dirty++
		}
	}
	c.reset()
	return dirty
}

// Device prices a page fault's backing transfer.
type Device interface {
	// FaultCost is the cost of bringing one page in.
	FaultCost() params.Duration
	// WritebackCost is the cost of pushing one dirty page out.
	WritebackCost() params.Duration
	// Name identifies the device in reports.
	Name() string
}

// RemoteDevice is remote swap: the page moves over the same fabric the
// RMC uses, as one DMA'd page transfer plus per-hop latency.
type RemoteDevice struct {
	P    params.Params
	Hops int
}

// FaultCost implements Device.
func (d RemoteDevice) FaultCost() params.Duration {
	return d.P.SwapPageTransfer + 2*params.Duration(d.Hops)*d.P.HopLatency
}

// WritebackCost implements Device.
func (d RemoteDevice) WritebackCost() params.Duration {
	return d.P.SwapPageTransfer + params.Duration(d.Hops)*d.P.HopLatency
}

// Name implements Device.
func (d RemoteDevice) Name() string { return "remote-swap" }

// DiskDevice is classic disk swap.
type DiskDevice struct {
	P params.Params
}

// FaultCost implements Device.
func (d DiskDevice) FaultCost() params.Duration { return d.P.DiskLatency }

// WritebackCost implements Device.
func (d DiskDevice) WritebackCost() params.Duration { return d.P.DiskLatency }

// Name implements Device.
func (d DiskDevice) Name() string { return "disk-swap" }
