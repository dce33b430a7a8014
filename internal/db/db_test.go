package db

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/splitmix"
	"repro/internal/swap"
)

func newTable(t *testing.T) (*Table, *core.System) {
	t.Helper()
	sys, err := core.NewSystem(params.Default())
	if err != nil {
		t.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(region, "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, sys
}

func freeAcc() memmodel.Accessor { return memmodel.Local{P: params.Default()} }

func TestCreateValidation(t *testing.T) {
	if _, err := Create(nil, "x", 0); err == nil {
		t.Error("nil region accepted")
	}
	sys, err := core.NewSystem(params.Default())
	if err != nil {
		t.Fatal(err)
	}
	region, _ := sys.Region(1)
	if _, err := Create(region, "", 0); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := Create(region, "x", 2); err == nil {
		t.Error("fanout 2 accepted")
	}
	tbl, err := Create(region, "orders", 0)
	if err != nil {
		t.Fatal(err)
	}
	// fanout 0 selects DefaultFanout: one row leaves a single root leaf,
	// sized like that of a DefaultFanout tree holding the same key.
	if err := tbl.Put(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	ref, _ := btree.New(DefaultFanout)
	ref.InsertKV(7, 1)
	if tbl.Name() != "orders" || tbl.Index().FootprintBytes() != ref.FootprintBytes() {
		t.Error("table metadata wrong")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	tbl, _ := newTable(t)
	acc := freeAcc()
	for k := uint64(1); k <= 100; k++ {
		if err := tbl.Put(k, []byte(fmt.Sprintf("row-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Rows != 100 {
		t.Errorf("Rows = %d", tbl.Rows)
	}
	for k := uint64(1); k <= 100; k++ {
		v, found, cost, err := tbl.Get(k, acc)
		if err != nil {
			t.Fatal(err)
		}
		if !found || string(v) != fmt.Sprintf("row-%03d", k) {
			t.Fatalf("Get(%d) = %q, %v", k, v, found)
		}
		if cost <= 0 {
			t.Error("query charged nothing")
		}
	}
	if _, found, _, err := tbl.Get(999, acc); err != nil || found {
		t.Error("phantom row found")
	}
}

func TestPutReplaces(t *testing.T) {
	tbl, _ := newTable(t)
	acc := freeAcc()
	if err := tbl.Put(7, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put(7, []byte("second, longer value")); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows != 1 {
		t.Errorf("Rows = %d after replace", tbl.Rows)
	}
	v, found, _, err := tbl.Get(7, acc)
	if err != nil || !found || string(v) != "second, longer value" {
		t.Errorf("Get = %q, %v, %v", v, found, err)
	}
}

func TestEmptyValue(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Put(5, nil); err != nil {
		t.Fatal(err)
	}
	v, found, _, err := tbl.Get(5, freeAcc())
	if err != nil || !found || len(v) != 0 {
		t.Errorf("empty row = %q, %v, %v", v, found, err)
	}
}

func TestScanAndCount(t *testing.T) {
	tbl, _ := newTable(t)
	acc := freeAcc()
	for k := uint64(0); k < 50; k++ {
		tbl.Put(k*10, []byte(fmt.Sprintf("v%d", k*10)))
	}
	rows, cost, err := tbl.Scan(95, 205, acc)
	if err != nil {
		t.Fatal(err)
	}
	// keys 100..200 -> 11 rows.
	if len(rows) != 11 {
		t.Fatalf("scan returned %d rows", len(rows))
	}
	if rows[0].Key != 100 || string(rows[0].Value) != "v100" {
		t.Errorf("first row = %+v", rows[0])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Key <= rows[i-1].Key {
			t.Error("scan out of order")
		}
	}
	if cost <= 0 {
		t.Error("scan charged nothing")
	}
	n, _ := tbl.Count(95, 205, acc)
	if n != 11 {
		t.Errorf("Count = %d", n)
	}
}

func TestRowsSpillToRemoteNodes(t *testing.T) {
	// A table bigger than the node's private memory lands rows on donor
	// nodes; queries still return the right bytes.
	p := params.Default()
	p.MemPerNode = 256 << 20
	p.PrivateMemPerNode = 64 << 20
	p.OSReserveBytes = 8 << 20
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	region, _ := sys.Region(1)
	tbl, err := Create(region, "big", 0)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0xAB}, 1<<20)
	for k := uint64(0); k < 150; k++ { // 150 MB of rows in a 64 MB private zone
		if err := tbl.Put(k, val); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if region.Agent().BorrowedBytes() == 0 {
		t.Fatal("table never spilled to remote memory")
	}
	v, found, _, err := tbl.Get(149, freeAcc())
	if err != nil || !found || !bytes.Equal(v, val) {
		t.Error("remote-resident row corrupted")
	}
}

func TestQueryCostOrdering(t *testing.T) {
	// The same query is cheapest on local memory, pricier on remote,
	// and (cold, scattered) prohibitive on swap with a tiny residency.
	tbl, _ := newTable(t)
	for k := uint64(0); k < 5000; k++ {
		tbl.Put(k, []byte("0123456789abcdef"))
	}
	p := params.Default()
	costOf := func(acc memmodel.Accessor) params.Duration {
		var total params.Duration
		for k := uint64(0); k < 5000; k += 97 {
			_, _, c, err := tbl.Get(k, acc)
			if err != nil {
				t.Fatal(err)
			}
			total += c
		}
		return total
	}
	local := costOf(memmodel.Local{P: p})
	remote := costOf(memmodel.Remote{P: p, Hops: 1})
	sw, err := memmodel.NewSwap(p, swapDevice{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	swapCost := costOf(sw)
	if !(local < remote && remote < swapCost) {
		t.Errorf("cost ordering violated: local %d, remote %d, swap %d", local, remote, swapCost)
	}
}

type swapDevice struct{}

func (swapDevice) FaultCost() params.Duration     { return 200 * params.Microsecond }
func (swapDevice) WritebackCost() params.Duration { return 200 * params.Microsecond }
func (swapDevice) Name() string                   { return "test-swap" }

func TestPutGetMatchesReferenceProperty(t *testing.T) {
	tbl, _ := newTable(t)
	acc := freeAcc()
	ref := map[uint64][]byte{}
	f := func(ops []uint16) bool {
		for _, op := range ops {
			key := uint64(op % 256)
			val := []byte(fmt.Sprintf("val-%d-%d", key, op))
			if err := tbl.Put(key, val); err != nil {
				return false
			}
			ref[key] = val
		}
		if tbl.Rows != uint64(len(ref)) {
			return false
		}
		for k, want := range ref {
			got, found, _, err := tbl.Get(k, acc)
			if err != nil || !found || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFootprint(t *testing.T) {
	tbl, _ := newTable(t)
	if tbl.FootprintBytes() != 0 {
		t.Error("empty table has a footprint")
	}
	tbl.Put(1, make([]byte, 1000))
	if tbl.FootprintBytes() < 1000 {
		t.Errorf("footprint %d below stored bytes", tbl.FootprintBytes())
	}
}

func TestHashIndexBasics(t *testing.T) {
	if _, err := NewHashIndex(0); err == nil {
		t.Error("zero-capacity index accepted")
	}
	h, err := NewHashIndex(100)
	if err != nil {
		t.Fatal(err)
	}
	acc := freeAcc()
	for k := uint64(0); k < 100; k++ {
		h.Insert(k, k*7)
	}
	if h.Size != 100 {
		t.Errorf("Size = %d", h.Size)
	}
	var probes, lookups uint64
	var b memmodel.Batcher
	for k := uint64(0); k < 100; k++ {
		v, found, cost, accs := h.SearchBatch(k, acc, &b)
		if !found || v != k*7 {
			t.Fatalf("SearchBatch(%d) = %d, %v", k, v, found)
		}
		if cost <= 0 || accs == 0 {
			t.Error("search charged nothing")
		}
		probes, lookups = probes+accs, lookups+1
	}
	_, found, _, accs := h.SearchBatch(999, acc, &b)
	if found {
		t.Error("phantom key found")
	}
	probes, lookups = probes+accs, lookups+1
	// Update in place.
	h.Insert(5, 42)
	if v, ok, _, _ := h.SearchBatch(5, acc, &b); !ok || v != 42 {
		t.Error("update lost")
	}
	if h.Size != 100 {
		t.Error("update changed size")
	}
	// Every probe is one access, so the accesses searches report are
	// their probe counts.
	if mean := float64(probes) / float64(lookups); mean < 1 || mean > 3 {
		t.Errorf("mean probes = %v, load factor discipline broken", mean)
	}
}

func TestHashIndexGrowth(t *testing.T) {
	h, err := NewHashIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	before := len(h.buckets)
	for k := uint64(0); k < 10000; k++ {
		h.Insert(k, k)
	}
	if len(h.buckets) <= before {
		t.Error("table never grew")
	}
	var b memmodel.Batcher
	for k := uint64(0); k < 10000; k += 373 {
		if v, ok, _, _ := h.SearchBatch(k, freeAcc(), &b); !ok || v != k {
			t.Fatalf("key %d lost across rehashes", k)
		}
	}
	// Load factor maintained.
	if float64(h.Size) > 0.7*float64(len(h.buckets)) {
		t.Error("load factor exceeded")
	}
}

func TestHashIndexMatchesReferenceProperty(t *testing.T) {
	h, err := NewHashIndex(16)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64]uint64{}
	acc := freeAcc()
	var b memmodel.Batcher
	f := func(ops []uint32) bool {
		for _, op := range ops {
			k, v := uint64(op%4096), uint64(op)
			h.Insert(k, v)
			ref[k] = v
		}
		if h.Size != len(ref) {
			return false
		}
		for k, want := range ref {
			if got, ok, _, _ := h.SearchBatch(k, acc, &b); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFootnote3HashVsBtree(t *testing.T) {
	// The paper's footnote 3: in remote memory, a hash index beats the
	// b-tree by an order of magnitude (constant probes vs a logarithmic
	// walk); under swap the two converge (both about one fault per
	// lookup, the b-tree's upper levels staying resident).
	p := params.Default()
	const keys = 100000
	h, err := NewHashIndex(keys)
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := newTable(t)
	for k := uint64(0); k < keys; k++ {
		h.Insert(k*2, k)
		bt.Index().InsertKV(k*2, k)
	}
	remote := memmodel.Remote{P: p, Hops: 1}
	var hCost, bCost params.Duration
	var b memmodel.Batcher
	for k := uint64(0); k < keys; k += 97 {
		_, _, c, _ := h.SearchBatch(k*2, remote, &b)
		hCost += c
		_, _, c2, _ := bt.Index().SearchKVBatch(k*2, remote, &b)
		bCost += c2
	}
	if float64(bCost)/float64(hCost) < 4 {
		t.Errorf("hash advantage in remote memory only %.1fx, footnote 3 promises much more", float64(bCost)/float64(hCost))
	}
}

// TestHashBucketIsItsModeledSize: a bucket takes exactly the bytes the
// model charges for it, so a 2^24-bucket table is 256 MiB of Go memory.
func TestHashBucketIsItsModeledSize(t *testing.T) {
	if got := unsafe.Sizeof(hbucket{}); got != HashBucketBytes {
		t.Errorf("hbucket is %d bytes, the model prices %d", got, HashBucketBytes)
	}
}

// recorder forwards to the accessor it wraps and records every op it
// prices, and the size of every batch.
type recorder struct {
	acc     memmodel.Accessor
	ops     []memmodel.AccessOp
	batches int
}

func (r *recorder) Access(a uint64, write bool) params.Duration {
	r.ops = append(r.ops, memmodel.AccessOp{Addr: a, Write: write})
	r.batches++
	return r.acc.Access(a, write)
}

func (r *recorder) AccessBatch(ops []memmodel.AccessOp) params.Duration {
	r.ops = append(r.ops, ops...)
	r.batches++
	return r.acc.AccessBatch(ops)
}

func (r *recorder) Name() string { return r.acc.Name() }

// TestHashSearchAccessSequence pins a lookup's accesses: one read of
// each bucket from the key's home to the key or to the first empty
// bucket, wrapping at the end of the table, priced in one batch as the
// same reads one at a time would be.
func TestHashSearchAccessSequence(t *testing.T) {
	h, err := NewHashIndex(8) // 16 buckets
	if err != nil {
		t.Fatal(err)
	}
	home := func(k uint64) uint64 { return splitmix.Hash(k) & h.mask }
	// Three keys sharing the last bucket as their home: the second and
	// third wrap to buckets 0 and 1.
	var keys []uint64
	for k := uint64(1); len(keys) < 4; k++ {
		if home(k) == 15 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:3] {
		h.Insert(k, k+1000)
	}
	p := params.Default()
	mkSwap := func() memmodel.Accessor {
		sw, err := memmodel.NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	rec := &recorder{acc: mkSwap()}
	twin := mkSwap()
	var b memmodel.Batcher
	for _, c := range []struct {
		key     uint64
		found   bool
		buckets []uint64
	}{
		{keys[0], true, []uint64{15}},
		{keys[2], true, []uint64{15, 0, 1}},
		{keys[3], false, []uint64{15, 0, 1, 2}},
	} {
		rec.ops, rec.batches = nil, 0
		val, found, cost, accesses := h.SearchBatch(c.key, rec, &b)
		if found != c.found || (found && val != c.key+1000) {
			t.Errorf("key %d: %d, %v; want found %v", c.key, val, found, c.found)
		}
		var want params.Duration
		var addrs []uint64
		for _, op := range rec.ops {
			want += twin.Access(op.Addr, op.Write)
			addrs = append(addrs, op.Addr)
		}
		if cost != want || rec.batches != 1 {
			t.Errorf("key %d: cost %d in %d batches; the same ops one at a time %d", c.key, cost, rec.batches, want)
		}
		wantAddrs := make([]uint64, len(c.buckets))
		for i, bk := range c.buckets {
			wantAddrs[i] = bk * HashBucketBytes
		}
		if !slices.Equal(addrs, wantAddrs) || accesses != uint64(len(wantAddrs)) {
			t.Errorf("key %d: %d accesses %v, want %v", c.key, accesses, addrs, wantAddrs)
		}
	}
}
