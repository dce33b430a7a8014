// Package rmalloc is the analogue of the paper's interposed malloc/free
// library: applications allocate dynamic memory normally, the library
// intercepts the reservation, backs it with (possibly remote) physical
// memory, and returns an ordinary pointer — after which loads and stores
// are plain memory instructions with no software on the path.
//
// The heap grows by acquiring page-aligned physical chunks from a
// Backing (the core package supplies one that allocates locally while
// local memory lasts, then borrows remotely via the reservation
// protocol), maps them into the process address space, and carves user
// allocations out of a virtual first-fit free list. Allocation metadata
// lives out of band: simulated application data never shares bytes with
// allocator bookkeeping.
package rmalloc

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/params"
	"repro/internal/vm"
)

// Backing supplies physical chunks for heap growth.
type Backing interface {
	// AcquireChunk obtains a page-aligned contiguous physical extent of
	// at least size bytes; the range may carry a node prefix.
	AcquireChunk(size uint64) (addr.Range, error)
	// ReleaseChunk returns an extent acquired earlier.
	ReleaseChunk(r addr.Range) error
}

// Align is the allocation alignment malloc guarantees.
const Align = 16

// DefaultChunk is the default heap-growth granularity.
const DefaultChunk = 64 << 20

// vrange is a virtual extent.
type vrange struct {
	start vm.Virt
	size  uint64
}

func (v vrange) end() vm.Virt { return v.start + vm.Virt(v.size) }

// Heap is one process's interposed heap.
type Heap struct {
	as        *vm.AddressSpace
	backing   Backing
	chunkSize uint64

	free   []vrange               // sorted by start, coalesced
	live   map[vm.Virt]uint64     // user pointer -> size
	chunks map[vm.Virt]addr.Range // arena base -> physical backing

	// Allocs, Frees, and Grows count operations; Used is live user bytes.
	Allocs, Frees, Grows uint64
	Used                 uint64
}

// NewHeap builds a heap over the address space. chunkSize 0 selects
// DefaultChunk.
func NewHeap(as *vm.AddressSpace, backing Backing, chunkSize uint64) (*Heap, error) {
	if as == nil || backing == nil {
		return nil, fmt.Errorf("rmalloc: nil address space or backing")
	}
	if chunkSize == 0 {
		chunkSize = DefaultChunk
	}
	if chunkSize%params.PageSize != 0 {
		return nil, fmt.Errorf("rmalloc: chunk size %d not page-aligned", chunkSize)
	}
	return &Heap{
		as:        as,
		backing:   backing,
		chunkSize: chunkSize,
		live:      make(map[vm.Virt]uint64),
		chunks:    make(map[vm.Virt]addr.Range),
	}, nil
}

// Malloc allocates size bytes and returns the user pointer.
func (h *Heap) Malloc(size uint64) (vm.Virt, error) {
	if size == 0 {
		return 0, fmt.Errorf("rmalloc: zero-size malloc")
	}
	size = (size + Align - 1) &^ uint64(Align-1)
	ptr, ok := h.carve(size)
	if !ok {
		if err := h.grow(size); err != nil {
			return 0, err
		}
		ptr, ok = h.carve(size)
		if !ok {
			return 0, fmt.Errorf("rmalloc: internal: grow did not make %d bytes available", size)
		}
	}
	h.live[ptr] = size
	h.Allocs++
	h.Used += size
	return ptr, nil
}

// Free releases a pointer returned by Malloc.
func (h *Heap) Free(ptr vm.Virt) error {
	size, ok := h.live[ptr]
	if !ok {
		return fmt.Errorf("rmalloc: free of unknown pointer %#x", uint64(ptr))
	}
	delete(h.live, ptr)
	h.insertFree(vrange{start: ptr, size: size})
	h.Frees++
	h.Used -= size
	return nil
}

// carve removes a first-fit block from the free list.
func (h *Heap) carve(size uint64) (vm.Virt, bool) {
	for i, f := range h.free {
		if f.size < size {
			continue
		}
		ptr := f.start
		if f.size == size {
			h.free = append(h.free[:i], h.free[i+1:]...)
		} else {
			h.free[i] = vrange{start: f.start + vm.Virt(size), size: f.size - size}
		}
		return ptr, true
	}
	return 0, false
}

// grow acquires a new arena big enough for size. The arena is virtually
// contiguous but may be assembled from several physical chunks: a single
// allocation larger than any one donor's free pool (say 10 GB on a
// cluster of 8 GB pools) is backed by reservations on several nodes,
// mapped back to back — physical contiguity is a per-chunk property,
// virtual contiguity is the allocator's.
func (h *Heap) grow(size uint64) error {
	want := h.chunkSize
	if size > want {
		want = size
	}
	want = (want + params.PageSize - 1) &^ uint64(params.PageSize-1)

	// Gather chunks totaling want, halving the piece size on failure.
	var pieces []addr.Range
	release := func() {
		for _, p := range pieces {
			// Best effort: a failed grow must not leak reservations.
			if err := h.backing.ReleaseChunk(p); err != nil {
				panic(fmt.Sprintf("rmalloc: rollback release failed: %v", err))
			}
		}
	}
	remaining := want
	piece := want
	for remaining > 0 {
		ask := piece
		if remaining < ask {
			ask = remaining
		}
		phys, err := h.backing.AcquireChunk(ask)
		if err != nil {
			if piece <= params.PageSize {
				release()
				return fmt.Errorf("rmalloc: heap growth of %d bytes failed (%d still unbacked): %w", want, remaining, err)
			}
			piece = (piece/2 + params.PageSize - 1) &^ uint64(params.PageSize-1)
			continue
		}
		pieces = append(pieces, phys)
		remaining -= phys.Size
	}

	base, err := h.as.ReserveVirtual(want)
	if err != nil {
		release()
		return err
	}
	va := base
	for _, phys := range pieces {
		if err := h.as.MapRange(va, phys.Start, vm.PagesFor(phys.Size)); err != nil {
			release()
			return err
		}
		h.chunks[va] = phys
		va += vm.Virt(phys.Size)
	}
	h.insertFree(vrange{start: base, size: want})
	h.Grows++
	return nil
}

// insertFree adds a block to the free list, coalescing neighbors.
func (h *Heap) insertFree(v vrange) {
	h.free = append(h.free, v)
	sort.Slice(h.free, func(i, j int) bool { return h.free[i].start < h.free[j].start })
	out := h.free[:0]
	for _, f := range h.free {
		if n := len(out); n > 0 && out[n-1].end() == f.start {
			out[n-1].size += f.size
		} else {
			out = append(out, f)
		}
	}
	h.free = out
}

// Trim releases arenas no live allocation touches back to the backing —
// the hot-remove half of the paper's dynamic regions: memory borrowed
// for a phase's peak goes back to its donor's pool when the phase ends.
// It returns the bytes released.
func (h *Heap) Trim() (uint64, error) {
	var released uint64
	for base, phys := range h.chunks {
		arena := vrange{start: base, size: phys.Size}
		if !h.fullyFree(arena) {
			continue
		}
		h.removeFree(arena)
		if err := h.as.Unmap(base, vm.PagesFor(phys.Size)); err != nil {
			return released, err
		}
		if err := h.backing.ReleaseChunk(phys); err != nil {
			return released, err
		}
		delete(h.chunks, base)
		released += phys.Size
	}
	return released, nil
}

// fullyFree reports whether the arena lies entirely inside one free
// block (no live allocation touches it).
func (h *Heap) fullyFree(arena vrange) bool {
	for _, f := range h.free {
		if f.start <= arena.start && arena.end() <= f.end() {
			return true
		}
	}
	return false
}

// removeFree carves the arena out of the free list.
func (h *Heap) removeFree(arena vrange) {
	out := h.free[:0]
	for _, f := range h.free {
		if f.start <= arena.start && arena.end() <= f.end() {
			if f.start < arena.start {
				out = append(out, vrange{start: f.start, size: uint64(arena.start - f.start)})
			}
			if arena.end() < f.end() {
				out = append(out, vrange{start: arena.end(), size: uint64(f.end() - arena.end())})
			}
			continue
		}
		out = append(out, f)
	}
	h.free = out
}

// Chunks returns a copy of the arena map: virtual base -> physical
// backing extent. The core layer uses it to build placement-aware
// latency models of a region.
func (h *Heap) Chunks() map[vm.Virt]addr.Range {
	out := make(map[vm.Virt]addr.Range, len(h.chunks))
	for k, v := range h.chunks {
		out[k] = v
	}
	return out
}
