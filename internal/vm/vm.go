// Package vm models the virtual-memory machinery of one node's OS: a
// page table whose entries can point at *prefixed* physical addresses,
// the one kernel modification the reservation protocol of Figure 4
// needs. Remote frames never swap: the donor pins them by granting only
// its pooled zone (package osmodel), so a page-table entry needs no flags.
package vm

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/params"
)

// Virt is a virtual address.
type Virt uint64

// Page returns the address rounded down to its page boundary.
func (v Virt) Page() Virt { return v &^ (params.PageSize - 1) }

// Offset returns the in-page offset.
func (v Virt) Offset() uint64 { return uint64(v) & (params.PageSize - 1) }

// vpn returns the virtual page number.
func (v Virt) vpn() uint64 { return uint64(v) / params.PageSize }

// AddressSpace is one process's page table plus a bump allocator for
// fresh virtual ranges. A page-table entry is its physical frame, which
// may carry a node prefix: that is the entire trick — once the OS writes
// a prefixed translation, ordinary loads and stores reach remote memory
// with no software on the path.
type AddressSpace struct {
	pages  map[uint64]addr.Phys
	nextVA Virt
}

// heapBase is where allocated virtual ranges start, clear of the nil
// page and any text/stack a real process would have.
const heapBase Virt = 0x0000_1000_0000

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[uint64]addr.Phys), nextVA: heapBase}
}

// ReserveVirtual carves a fresh, unmapped virtual range of the given
// byte size (rounded up to pages) and returns its base.
func (as *AddressSpace) ReserveVirtual(size uint64) (Virt, error) {
	if size == 0 {
		return 0, fmt.Errorf("vm: zero-size virtual reservation")
	}
	pages := (size + params.PageSize - 1) / params.PageSize
	base := as.nextVA
	as.nextVA += Virt(pages * params.PageSize)
	return base, nil
}

// MapRange installs translations for npages pages starting at virtual
// base va, backed by the contiguous physical range starting at pa. pa
// may be prefixed (a remote reservation).
func (as *AddressSpace) MapRange(va Virt, pa addr.Phys, npages int) error {
	if va.Offset() != 0 || uint64(pa)%params.PageSize != 0 {
		return fmt.Errorf("vm: unaligned mapping %x -> %v", uint64(va), pa)
	}
	if npages <= 0 {
		return fmt.Errorf("vm: mapping %d pages", npages)
	}
	// Reject double-mapping before mutating anything.
	for i := 0; i < npages; i++ {
		if _, dup := as.pages[(va + Virt(i)*params.PageSize).vpn()]; dup {
			return fmt.Errorf("vm: page %x already mapped", uint64(va)+uint64(i)*params.PageSize)
		}
	}
	for i := 0; i < npages; i++ {
		v := va + Virt(i)*params.PageSize
		as.pages[v.vpn()] = pa + addr.Phys(i*params.PageSize)
	}
	return nil
}

// Unmap removes npages translations starting at va.
func (as *AddressSpace) Unmap(va Virt, npages int) error {
	if va.Offset() != 0 || npages <= 0 {
		return fmt.Errorf("vm: bad unmap %x x%d", uint64(va), npages)
	}
	for i := 0; i < npages; i++ {
		v := va + Virt(i)*params.PageSize
		if _, ok := as.pages[v.vpn()]; !ok {
			return fmt.Errorf("vm: unmapping unmapped page %x", uint64(v))
		}
	}
	for i := 0; i < npages; i++ {
		delete(as.pages, (va + Virt(i)*params.PageSize).vpn())
	}
	return nil
}

// Translate walks the page table for va. A missing translation is a
// page fault and returns an error (the OS model decides what a fault
// means: allocation, swap-in, or a crash).
func (as *AddressSpace) Translate(va Virt) (addr.Phys, error) {
	frame, ok := as.pages[va.vpn()]
	if !ok {
		return 0, fmt.Errorf("vm: page fault at %#x", uint64(va))
	}
	return frame + addr.Phys(va.Offset()), nil
}

// PagesFor returns how many pages a byte range spans, a helper shared by
// OS-level code.
func PagesFor(size uint64) int {
	return int((size + params.PageSize - 1) / params.PageSize)
}
