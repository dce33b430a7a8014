package db

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/params"
)

// TestColumnarScanMatchesIndexScan is the oracle: after a churn of
// inserts and replacements, the columnar bulk scan must return exactly
// the rows the index walk returns, in the same order.
func TestColumnarScanMatchesIndexScan(t *testing.T) {
	tbl, _ := newTable(t)
	for k := uint64(0); k < 700; k++ {
		if err := tbl.Put(k*3, []byte(fmt.Sprintf("row-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k < 700; k += 7 {
		if err := tbl.Put(k*3, []byte(fmt.Sprintf("replaced-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := uint64(300), uint64(1500)
	want, _, err := tbl.Scan(lo, hi, freeAcc())
	if err != nil {
		t.Fatal(err)
	}
	wantN, _ := tbl.Count(lo, hi, freeAcc())

	pricer, err := memmodel.NewBulkModel(params.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetBulkPricer(pricer)
	got, bulkCost, err := tbl.Scan(lo, hi, freeAcc())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("bulk scan returned %d rows, index scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("row %d: bulk (%d, %q) vs index (%d, %q)",
				i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	if bulkCost <= 0 {
		t.Error("bulk scan priced at zero")
	}
	if gotN, _ := tbl.Count(lo, hi, freeAcc()); gotN != wantN {
		t.Errorf("bulk count %d, index count %d", gotN, wantN)
	}

	// Unsetting the pricer restores the index path bit-for-bit.
	tbl.SetBulkPricer(nil)
	again, _, err := tbl.Scan(lo, hi, freeAcc())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(want) {
		t.Error("index path changed after bulk detour")
	}
}

// TestColumnarScanCheaperThanIndexWalk prices the same range query both
// ways at the same mesh distance. The index walk pays a dependent
// round trip per probe and per row word; the columnar sweep moves the
// same information in a handful of bursts.
func TestColumnarScanCheaperThanIndexWalk(t *testing.T) {
	tbl, _ := newTable(t)
	const rows = 2000
	for k := uint64(0); k < rows; k++ {
		if err := tbl.Put(k, []byte("0123456789abcdef0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	p := params.Default()
	_, indexCost, err := tbl.Scan(0, rows, memmodel.Remote{P: p, Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	pricer, err := memmodel.NewBulkModel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetBulkPricer(pricer)
	bulkRows, bulkCost, err := tbl.Scan(0, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bulkRows) != rows {
		t.Fatalf("bulk scan returned %d of %d rows", len(bulkRows), rows)
	}
	if bulkCost*2 >= indexCost {
		t.Errorf("bulk scan %d ps vs index walk %d ps; want at least 2x cheaper", bulkCost, indexCost)
	}
	t.Logf("index walk %d ps, columnar bulk scan %d ps (%.1fx)",
		indexCost, bulkCost, float64(indexCost)/float64(bulkCost))

	// Count needs no row reads at all: one column sweep.
	n, countCost := tbl.Count(0, rows, nil)
	if n != rows {
		t.Errorf("bulk count = %d", n)
	}
	if countCost >= bulkCost {
		t.Error("count not cheaper than the row-materializing scan")
	}
}

// TestColumnarSegmentGrowth crosses segment boundaries: more rows than
// one 512-slot segment holds, scanned correctly across segments.
func TestColumnarSegmentGrowth(t *testing.T) {
	tbl, _ := newTable(t)
	const rows = SegmentRows*2 + 37
	for k := uint64(0); k < rows; k++ {
		if err := tbl.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(tbl.segs) != 3 {
		t.Fatalf("%d rows sit in %d segments; want 3", rows, len(tbl.segs))
	}
	pricer, err := memmodel.NewBulkModel(params.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetBulkPricer(pricer)
	got, _, err := tbl.Scan(0, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != rows {
		t.Fatalf("scan across segments returned %d of %d rows", len(got), rows)
	}
	for i, r := range got {
		if r.Key != uint64(i) || len(r.Value) != 1 || r.Value[0] != byte(i) {
			t.Fatalf("row %d = (%d, %v)", i, r.Key, r.Value)
		}
	}
}
