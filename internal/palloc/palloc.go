// Package palloc implements the physical-frame extent allocator the OS
// model uses for both its private zone and the pooled zone it donates
// from. Reservations are contiguous, page-aligned extents — the paper's
// reservation example hands out a contiguous physical area precisely so
// that one (start, size) pair and one prefix rewrite describe the whole
// grant — allocated first-fit and coalesced on release.
package palloc

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/params"
)

// Allocator hands out contiguous extents from one physical zone.
type Allocator struct {
	zone addr.Range
	// free holds disjoint free extents sorted by start.
	free []addr.Range

	// Allocated tracks outstanding bytes for accounting.
	Allocated uint64
}

// New creates an allocator over the given zone. The zone must be
// page-aligned and local (the allocator manages one node's frames; the
// prefix is applied later, by the reservation protocol).
func New(zone addr.Range) (*Allocator, error) {
	if zone.Size == 0 || zone.Size%params.PageSize != 0 || uint64(zone.Start)%params.PageSize != 0 {
		return nil, fmt.Errorf("palloc: zone %v not page-aligned", zone)
	}
	if !zone.Start.IsLocal() || !(zone.End() - 1).IsLocal() {
		return nil, fmt.Errorf("palloc: zone %v not within the local address space", zone)
	}
	return &Allocator{zone: zone, free: []addr.Range{zone}}, nil
}

// Free returns the total free bytes.
func (a *Allocator) Free() uint64 {
	var total uint64
	for _, e := range a.free {
		total += e.Size
	}
	return total
}

// LargestExtent returns the size of the largest contiguous free extent —
// what a single reservation can actually get.
func (a *Allocator) LargestExtent() uint64 {
	var best uint64
	for _, e := range a.free {
		if e.Size > best {
			best = e.Size
		}
	}
	return best
}

// Alloc reserves a contiguous extent of the given size (rounded up to
// pages), first-fit.
func (a *Allocator) Alloc(size uint64) (addr.Range, error) {
	if size == 0 {
		return addr.Range{}, fmt.Errorf("palloc: zero-size allocation")
	}
	size = roundUp(size)
	for i, e := range a.free {
		if e.Size < size {
			continue
		}
		got := addr.Range{Start: e.Start, Size: size}
		if e.Size == size {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = addr.Range{Start: e.Start + addr.Phys(size), Size: e.Size - size}
		}
		a.Allocated += size
		return got, nil
	}
	return addr.Range{}, fmt.Errorf("palloc: no contiguous extent of %d bytes (largest %d, free %d)",
		size, a.LargestExtent(), a.Free())
}

// Release returns an extent. It must exactly cover previously allocated,
// currently-unreleased frames; overlapping the free list is an error.
func (a *Allocator) Release(r addr.Range) error {
	if r.Size == 0 || r.Size%params.PageSize != 0 || uint64(r.Start)%params.PageSize != 0 {
		return fmt.Errorf("palloc: release %v not page-aligned", r)
	}
	if r.Start < a.zone.Start || r.End() > a.zone.End() {
		return fmt.Errorf("palloc: release %v outside zone %v", r, a.zone)
	}
	for _, e := range a.free {
		if e.Overlaps(r) {
			return fmt.Errorf("palloc: release %v overlaps free extent %v (double free?)", r, e)
		}
	}
	a.free = append(a.free, r)
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].Start < a.free[j].Start })
	// Coalesce adjacent extents.
	out := a.free[:0]
	for _, e := range a.free {
		if n := len(out); n > 0 && out[n-1].End() == e.Start {
			out[n-1].Size += e.Size
		} else {
			out = append(out, e)
		}
	}
	a.free = out
	a.Allocated -= r.Size
	return nil
}

// Contains reports whether the extent lies inside the allocator's zone.
func (a *Allocator) Contains(r addr.Range) bool {
	return r.Start >= a.zone.Start && r.End() <= a.zone.End()
}

func roundUp(n uint64) uint64 {
	return (n + params.PageSize - 1) &^ uint64(params.PageSize-1)
}
