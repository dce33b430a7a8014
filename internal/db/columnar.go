// Columnar segments: beside the row store and the B-tree index, a
// table maintains two append-only columns in region memory — the key
// column and the row-pointer column — packed into contiguous segments.
// Range queries then have two shapes: the pointer-chasing index walk
// (one dependent access per level, the shape bulk transfer cannot
// help), and the columnar scan — read whole segments with scatter-
// gather bursts and filter in the core. With a BulkPricer set, Scan and
// Count take the second path; this is the workload the new bulk data
// plane exists for.
package db

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/vm"
)

// SegmentRows is how many column entries one segment holds. A segment
// is one page: 512 × 8-byte values = 4 KiB, 64 cache lines.
const SegmentRows = 512

// SegmentBytes is one column segment's size.
const SegmentBytes = SegmentRows * 8

// colSeg is one segment pair: a page of keys and a page of row
// pointers at the same slot positions.
type colSeg struct {
	keys vm.Virt
	ptrs vm.Virt
}

// SetBulkPricer routes the table's Scan and Count through the columnar
// segments, pricing segment and row-run reads as bulk bursts on the
// given pricer. A nil pricer restores the index-walk path.
func (t *Table) SetBulkPricer(p memmodel.BulkPricer) { t.pricer = p }

// appendColumn records a newly stored row in the columns, allocating a
// fresh segment pair when the current one fills.
func (t *Table) appendColumn(key uint64, ptr vm.Virt) error {
	slot := t.nextSlot
	if slot%SegmentRows == 0 {
		kseg, err := t.region.Malloc(SegmentBytes)
		if err != nil {
			return err
		}
		pseg, err := t.region.Malloc(SegmentBytes)
		if err != nil {
			return err
		}
		t.segs = append(t.segs, colSeg{keys: kseg, ptrs: pseg})
	}
	seg := t.segs[slot/SegmentRows]
	off := vm.Virt(slot % SegmentRows * 8)
	if err := t.region.WriteUint64(seg.keys+off, key); err != nil {
		return err
	}
	if err := t.region.WriteUint64(seg.ptrs+off, uint64(ptr)); err != nil {
		return err
	}
	if t.slots == nil {
		t.slots = make(map[uint64]int)
	}
	t.slots[key] = slot
	t.nextSlot++
	return nil
}

// tombstoneColumn zeroes a replaced row's pointer slot; the slot stays
// allocated, filtered out by scans.
func (t *Table) tombstoneColumn(key uint64) error {
	slot, ok := t.slots[key]
	if !ok {
		return fmt.Errorf("db: %s: key %d has no column slot", t.name, key)
	}
	seg := t.segs[slot/SegmentRows]
	off := vm.Virt(slot % SegmentRows * 8)
	if err := t.region.WriteUint64(seg.ptrs+off, 0); err != nil {
		return err
	}
	delete(t.slots, key)
	return nil
}

// scanColumns bulk-reads every column segment, filters [lo, hi] live
// entries, and returns them key-sorted along with the priced cost of
// the segment reads.
func (t *Table) scanColumns(lo, hi uint64) (matches []scanMatch, cost params.Duration, err error) {
	var kbuf, pbuf [SegmentBytes]byte
	for si, seg := range t.segs {
		used := SegmentRows
		if si == len(t.segs)-1 {
			used = t.nextSlot - si*SegmentRows
		}
		nb := used * 8
		lines := (nb + int(params.CacheLineSize) - 1) / int(params.CacheLineSize)
		// Two segment reads (keys, pointers), each one bulk burst.
		cost += t.pricer.BulkRead(lines) + t.pricer.BulkRead(lines)
		if err := t.region.Read(seg.keys, kbuf[:nb]); err != nil {
			return nil, cost, err
		}
		if err := t.region.Read(seg.ptrs, pbuf[:nb]); err != nil {
			return nil, cost, err
		}
		for i := 0; i < used; i++ {
			k := binary.LittleEndian.Uint64(kbuf[i*8:])
			p := binary.LittleEndian.Uint64(pbuf[i*8:])
			if p == 0 || k < lo || k > hi {
				continue
			}
			matches = append(matches, scanMatch{key: k, ptr: vm.Virt(p)})
		}
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].key < matches[j].key })
	return matches, cost, nil
}

type scanMatch struct {
	key uint64
	ptr vm.Virt
}

// scanBulk is the columnar Scan: segment sweep for the matches, then
// the matched rows' bytes gathered as coalesced bulk runs — physically
// adjacent rows (the common case: rows land in allocation order) merge
// into one burst.
func (t *Table) scanBulk(lo, hi uint64) (rows []ScanResult, cost params.Duration, err error) {
	matches, cost, err := t.scanColumns(lo, hi)
	if err != nil || len(matches) == 0 {
		return nil, cost, err
	}
	// Row extents, then line-granular interval merge in address order.
	type extent struct {
		start, end uint64 // line-aligned byte addresses in the region
	}
	extents := make([]extent, len(matches))
	values := make([][]byte, len(matches))
	for i, m := range matches {
		n, err := t.region.ReadUint64(m.ptr)
		if err != nil {
			return nil, cost, err
		}
		buf := make([]byte, n)
		if n > 0 {
			if err := t.region.Read(m.ptr+8, buf); err != nil {
				return nil, cost, err
			}
		}
		values[i] = buf
		line := uint64(params.CacheLineSize)
		extents[i] = extent{
			start: uint64(m.ptr) / line * line,
			end:   (uint64(m.ptr) + 8 + n + line - 1) / line * line,
		}
	}
	sort.Slice(extents, func(i, j int) bool { return extents[i].start < extents[j].start })
	runStart, runEnd := extents[0].start, extents[0].end
	charge := func() {
		cost += t.pricer.BulkRead(int((runEnd - runStart) / uint64(params.CacheLineSize)))
	}
	for _, e := range extents[1:] {
		if e.start <= runEnd { // adjacent or overlapping: same burst
			if e.end > runEnd {
				runEnd = e.end
			}
			continue
		}
		charge()
		runStart, runEnd = e.start, e.end
	}
	charge()

	rows = make([]ScanResult, len(matches))
	for i, m := range matches {
		rows[i] = ScanResult{Key: m.key, Value: values[i]}
	}
	return rows, cost, nil
}

// countBulk is the columnar Count: one segment sweep, no row reads.
func (t *Table) countBulk(lo, hi uint64) (uint64, params.Duration) {
	matches, cost, err := t.scanColumns(lo, hi)
	if err != nil {
		return 0, cost
	}
	return uint64(len(matches)), cost
}
