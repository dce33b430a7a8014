// Package db is the in-memory database of the paper's conclusions: "our
// short-term objective is to continue testing the prototype with real
// applications or even databases … store indexes or the entire database
// in memory, and then study the execution time for different queries."
//
// A Table keeps both its B-tree index and its row storage inside a
// memory region — which means both can live in memory borrowed from
// other nodes, far beyond one motherboard's capacity. Rows move through
// the region's functional path (the bytes really land on the owning
// node); queries charge their index probes and row reads to a
// memmodel.Accessor, so the same query can be priced under local memory,
// the prototype's remote memory, or remote swap.
package db

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/vm"
)

// Table is one key-value table: a B-tree index mapping uint64 keys to
// row pointers, plus length-prefixed rows in region memory.
type Table struct {
	region *core.Region
	index  *btree.Tree
	name   string
	batch  memmodel.Batcher // query-path scratch; Tables are not goroutine-safe

	// Columnar segment log (columnar.go): key and row-pointer columns
	// maintained beside the index, scanned by bulk bursts when a pricer
	// is set.
	segs     []colSeg
	slots    map[uint64]int
	nextSlot int
	pricer   memmodel.BulkPricer

	// Rows counts live rows; PutBytes accumulates stored payload bytes.
	Rows     uint64
	PutBytes uint64
}

// DefaultFanout is the index fanout: the Figure 9 optimum, one node per
// page.
const DefaultFanout = 168

// Create makes an empty table in the region. fanout 0 selects the
// default.
func Create(region *core.Region, name string, fanout int) (*Table, error) {
	if region == nil {
		return nil, fmt.Errorf("db: nil region")
	}
	if name == "" {
		return nil, fmt.Errorf("db: empty table name")
	}
	if fanout == 0 {
		fanout = DefaultFanout
	}
	idx, err := btree.New(fanout)
	if err != nil {
		return nil, err
	}
	return &Table{region: region, index: idx, name: name}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Index exposes the underlying index (for footprint inspection).
func (t *Table) Index() *btree.Tree { return t.index }

// Put stores (or replaces) a row. The row is allocated in the region —
// locally while local memory lasts, then on donor nodes — and the index
// points at it.
func (t *Table) Put(key uint64, value []byte) error {
	if old, ok := t.index.Lookup(key); ok {
		if err := t.freeRow(vm.Virt(old)); err != nil {
			return err
		}
		if err := t.tombstoneColumn(key); err != nil {
			return err
		}
		t.Rows--
	}
	ptr, err := t.region.Malloc(8 + uint64(len(value)))
	if err != nil {
		return err
	}
	if err := t.region.WriteUint64(ptr, uint64(len(value))); err != nil {
		return err
	}
	if len(value) > 0 {
		if err := t.region.Write(ptr+8, value); err != nil {
			return err
		}
	}
	t.index.InsertKV(key, uint64(ptr))
	if err := t.appendColumn(key, ptr); err != nil {
		return err
	}
	t.Rows++
	t.PutBytes += uint64(len(value))
	return nil
}

func (t *Table) freeRow(ptr vm.Virt) error {
	return t.region.Free(ptr)
}

// Get retrieves a row, charging the index walk and the row read to acc
// through the batched access engine. found is false for absent keys.
func (t *Table) Get(key uint64, acc memmodel.Accessor) (value []byte, found bool, cost params.Duration, err error) {
	rowPtr, ok, c, _ := t.index.SearchKVBatch(key, acc, &t.batch)
	cost = c
	if !ok {
		return nil, false, cost, nil
	}
	value, rc, err := t.readRow(vm.Virt(rowPtr), acc)
	cost += rc
	if err != nil {
		return nil, false, cost, err
	}
	return value, true, cost, nil
}

// readRow loads a length-prefixed row, charging one access per word.
// The accesses — length prefix, then each payload word in order — are
// batched and priced in one memmodel.Batch call.
func (t *Table) readRow(ptr vm.Virt, acc memmodel.Accessor) ([]byte, params.Duration, error) {
	t.batch.Read(uint64(ptr))
	n, err := t.region.ReadUint64(ptr)
	if err != nil {
		return nil, t.batch.Flush(acc), err
	}
	buf := make([]byte, n)
	if n > 0 {
		if err := t.region.Read(ptr+8, buf); err != nil {
			return nil, t.batch.Flush(acc), err
		}
		for off := uint64(0); off < n; off += 8 {
			t.batch.Read(uint64(ptr) + 8 + off)
		}
	}
	return buf, t.batch.Flush(acc), nil
}

// ScanResult is one row yielded by Scan.
type ScanResult struct {
	Key   uint64
	Value []byte
}

// Scan returns every live row with lo <= key <= hi in key order. With
// no bulk pricer it walks the index and charges each probe and row
// word to acc; with SetBulkPricer it sweeps the columnar segments as
// bulk bursts instead and acc goes unused.
func (t *Table) Scan(lo, hi uint64, acc memmodel.Accessor) (rows []ScanResult, cost params.Duration, err error) {
	if t.pricer != nil {
		return t.scanBulk(lo, hi)
	}
	var ptrs []struct {
		key uint64
		ptr uint64
	}
	c, _ := t.index.RangeScanBatch(lo, hi, acc, &t.batch, func(k uint64) {
		v, _ := t.index.Lookup(k)
		ptrs = append(ptrs, struct {
			key uint64
			ptr uint64
		}{k, v})
	})
	cost = c
	for _, p := range ptrs {
		val, rc, rerr := t.readRow(vm.Virt(p.ptr), acc)
		cost += rc
		if rerr != nil {
			return rows, cost, rerr
		}
		rows = append(rows, ScanResult{Key: p.key, Value: val})
	}
	return rows, cost, nil
}

// Count returns the number of live keys in [lo, hi]. Index-only on the
// scalar path; one columnar segment sweep when a bulk pricer is set.
func (t *Table) Count(lo, hi uint64, acc memmodel.Accessor) (n uint64, cost params.Duration) {
	if t.pricer != nil {
		return t.countBulk(lo, hi)
	}
	c, _ := t.index.RangeScanBatch(lo, hi, acc, &t.batch, func(uint64) { n++ })
	return n, c
}

// FootprintBytes reports the table's total memory: index, rows
// (including the length prefixes), and the columnar segments.
func (t *Table) FootprintBytes() uint64 {
	return t.index.FootprintBytes() + t.PutBytes + 8*t.Rows + uint64(len(t.segs))*2*SegmentBytes
}
