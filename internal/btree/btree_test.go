package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/memmodel"
	"repro/internal/params"
)

// countingMem charges 1 per access.
type countingMem struct{}

func (countingMem) Access(uint64, bool) params.Duration { return 1 }
func (countingMem) AccessBatch(ops []memmodel.AccessOp) params.Duration {
	return params.Duration(len(ops))
}
func (countingMem) Name() string { return "counting" }

// recorder forwards to the accessor it wraps and records every op it
// prices, and the size of every batch.
type recorder struct {
	acc     memmodel.Accessor
	ops     []memmodel.AccessOp
	batches []int
}

func (r *recorder) Access(a uint64, write bool) params.Duration {
	r.ops = append(r.ops, memmodel.AccessOp{Addr: a, Write: write})
	r.batches = append(r.batches, 1)
	return r.acc.Access(a, write)
}

func (r *recorder) AccessBatch(ops []memmodel.AccessOp) params.Duration {
	r.ops = append(r.ops, ops...)
	r.batches = append(r.batches, len(ops))
	return r.acc.AccessBatch(ops)
}

func (r *recorder) Name() string { return r.acc.Name() }

// addrs returns the recorded addresses and clears the record.
func (r *recorder) addrs() []uint64 {
	out := make([]uint64, len(r.ops))
	for i, op := range r.ops {
		out[i] = op.Addr
	}
	r.ops, r.batches = r.ops[:0], r.batches[:0]
	return out
}

// contains reports membership without charging an accessor.
func contains(tr *Tree, key uint64) bool {
	_, ok := tr.Lookup(key)
	return ok
}

func TestNewValidation(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Error("fanout 2 accepted")
	}
	if _, err := New(3); err != nil {
		t.Errorf("fanout 3 rejected: %v", err)
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr, _ := New(4)
	keys := []uint64{50, 10, 90, 30, 70, 20, 80, 60, 40, 100, 5, 95}
	for _, k := range keys {
		tr.InsertKV(k, 0)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Size != len(keys) {
		t.Errorf("Size = %d", tr.Size)
	}
	var mem countingMem
	var b memmodel.Batcher
	for _, k := range keys {
		found, _, accs := tr.SearchBatch(k, mem, &b)
		if !found {
			t.Errorf("key %d missing", k)
		}
		if accs == 0 {
			t.Error("search charged no accesses")
		}
	}
	for _, k := range []uint64{0, 11, 55, 101} {
		if found, _, _ := tr.SearchBatch(k, mem, &b); found {
			t.Errorf("phantom key %d found", k)
		}
	}
	// Re-inserting a key leaves the size unchanged.
	tr.InsertKV(50, 0)
	if tr.Size != len(keys) {
		t.Error("duplicate insert changed size")
	}
}

func TestInsertMatchesReferenceProperty(t *testing.T) {
	f := func(raw []uint16, fanoutSel uint8) bool {
		fanout := 3 + int(fanoutSel%14)
		tr, err := New(fanout)
		if err != nil {
			return false
		}
		ref := map[uint64]bool{}
		for _, r := range raw {
			k := uint64(r)
			tr.InsertKV(k, 0)
			ref[k] = true
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		if tr.Size != len(ref) {
			return false
		}
		for k := range ref {
			if !contains(tr, k) {
				return false
			}
		}
		// Walk yields sorted order.
		var last *uint64
		ok := true
		tr.Walk(func(k uint64) {
			if last != nil && *last >= k {
				ok = false
			}
			kk := k
			last = &kk
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadShape(t *testing.T) {
	// 10 keys, fanout 3: minimal depth d with 3^d-1 >= 10 is 3.
	tr, _ := New(3)
	keys := make([]uint64, 10)
	for i := range keys {
		keys[i] = uint64(i+1) * 7
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 3 {
		t.Errorf("depth = %d, want 3", tr.Depth())
	}
	for _, k := range keys {
		if !contains(tr, k) {
			t.Errorf("bulk-loaded key %d missing", k)
		}
	}
}

func TestBulkLoadMinimalDepthProperty(t *testing.T) {
	f := func(nSel uint16, fanoutSel uint8) bool {
		fanout := 3 + int(fanoutSel%30)
		n := int(nSel%2000) + 1
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i) * 3
		}
		tr, err := New(fanout)
		if err != nil {
			return false
		}
		if tr.BulkLoad(keys) != nil {
			return false
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		d := tr.Depth()
		// Minimal: capacity at d covers n, capacity at d-1 does not.
		if capacityAtDepth(fanout, d) < uint64(n) {
			return false
		}
		if d > 1 && capacityAtDepth(fanout, d-1) >= uint64(n) {
			return false
		}
		// Spot-check membership.
		for i := 0; i < n; i += 97 {
			if !contains(tr, keys[i]) {
				return false
			}
		}
		return !contains(tr, 1) // odd keys absent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadErrors(t *testing.T) {
	tr, _ := New(4)
	if err := tr.BulkLoad([]uint64{1, 2, 2}); err == nil {
		t.Error("duplicate keys accepted")
	}
	tr2, _ := New(4)
	if err := tr2.BulkLoad(nil); err != nil {
		t.Errorf("empty bulk load rejected: %v", err)
	}
	tr2.InsertKV(5, 0)
	if err := tr2.BulkLoad([]uint64{1}); err == nil {
		t.Error("bulk load into non-empty tree accepted")
	}
}

func TestUnsortedBulkLoad(t *testing.T) {
	tr, _ := New(8)
	keys := []uint64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	tr.Walk(func(k uint64) { got = append(got, k) })
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("walk not sorted: %v", got)
		}
	}
}

func TestSearchCostLogarithmic(t *testing.T) {
	tr, _ := New(168)
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	var b memmodel.Batcher
	rng := rand.New(rand.NewSource(7))
	var total uint64
	const searches = 1000
	for i := 0; i < searches; i++ {
		_, _, accs := tr.SearchBatch(uint64(rng.Intn(200000)), countingMem{}, &b)
		total += accs
	}
	perSearch := float64(total) / searches
	// depth ~ 3 levels × (log2(167) ≈ 7.4 probes + header + child) ≈ 30.
	if perSearch < 5 || perSearch > 60 {
		t.Errorf("accesses per search = %v, outside the logarithmic band", perSearch)
	}
}

func TestNodePageDiscipline(t *testing.T) {
	// One-page nodes must never straddle a page.
	tr, _ := New(168)
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	size := NodeBytes(168)
	if size > params.PageSize {
		t.Fatalf("fanout-168 node is %d bytes; the test premise is wrong", size)
	}
	var walkNodes func(n *node) error
	walkNodes = func(n *node) error {
		if n == nil {
			return nil
		}
		if n.base/params.PageSize != (n.base+size-1)/params.PageSize {
			t.Fatalf("node at %#x straddles a page", n.base)
		}
		for _, c := range n.children {
			if err := walkNodes(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walkNodes(tr.root); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPageNodesPageAligned(t *testing.T) {
	tr, _ := New(512) // node = 16 + 511*24 = 12280 bytes: 3 pages
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	var check func(n *node)
	check = func(n *node) {
		if n == nil {
			return
		}
		if n.base%params.PageSize != 0 {
			t.Fatalf("multi-page node at %#x not page-aligned", n.base)
		}
		for _, c := range n.children {
			check(c)
		}
	}
	check(tr.root)
}

func TestSearchUnderSwapLocality(t *testing.T) {
	// A fanout-168 node fills one page: a search touching d nodes under
	// cold swap should fault about d pages; re-searching the same key is
	// all hits.
	p := params.Default()
	tr, _ := New(168)
	keys := make([]uint64, 200000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	sw, err := memmodel.NewSwap(p, fakeDev{}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Every access pays the DRAM latency and each fault adds the trap
	// and the device transfer; a read-only walk writes nothing back.
	var b memmodel.Batcher
	_, cold, accs := tr.SearchBatch(12345, sw, &b)
	faults := (cold - params.Duration(accs)*p.DRAMLatency) / (p.SwapTrapOverhead + fakeDev{}.FaultCost())
	if faults == 0 || int(faults) > tr.Depth() {
		t.Errorf("cold search faulted %d pages over depth %d", faults, tr.Depth())
	}
	if _, warm, accs := tr.SearchBatch(12345, sw, &b); warm != params.Duration(accs)*p.DRAMLatency {
		t.Errorf("warm re-search cost %d, want %d all-hit accesses", warm, accs)
	}
}

type fakeDev struct{}

func (fakeDev) FaultCost() params.Duration     { return 1000 }
func (fakeDev) WritebackCost() params.Duration { return 1000 }
func (fakeDev) Name() string                   { return "fake" }

func TestFootprintGrows(t *testing.T) {
	tr, _ := New(32)
	if tr.FootprintBytes() != 0 {
		t.Error("empty tree has a footprint")
	}
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	want := uint64(tr.Nodes) * NodeBytes(32)
	if tr.FootprintBytes() < want {
		t.Errorf("footprint %d below %d nodes worth", tr.FootprintBytes(), tr.Nodes)
	}
}

func TestEmptyTreeSearch(t *testing.T) {
	tr, _ := New(8)
	var b memmodel.Batcher
	if found, cost, accs := tr.SearchBatch(1, countingMem{}, &b); found || cost != 0 || accs != 0 {
		t.Error("empty tree search misbehaved")
	}
	if tr.Depth() != 0 {
		t.Error("empty tree has depth")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRangeScanSmall(t *testing.T) {
	tr, _ := New(4)
	for k := uint64(10); k <= 100; k += 10 {
		tr.InsertKV(k, 0)
	}
	var mem countingMem
	var b memmodel.Batcher
	var got []uint64
	cost, accs := tr.RangeScanBatch(25, 75, mem, &b, func(k uint64) { got = append(got, k) })
	want := []uint64{30, 40, 50, 60, 70}
	if len(got) != len(want) {
		t.Fatalf("scan returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan returned %v, want %v", got, want)
		}
	}
	if cost == 0 || accs == 0 {
		t.Error("scan charged nothing")
	}
	// Inclusive bounds.
	got = nil
	tr.RangeScanBatch(30, 70, mem, &b, func(k uint64) { got = append(got, k) })
	if len(got) != 5 || got[0] != 30 || got[4] != 70 {
		t.Errorf("inclusive scan = %v", got)
	}
	// Empty and inverted ranges.
	got = nil
	tr.RangeScanBatch(101, 999, mem, &b, func(k uint64) { got = append(got, k) })
	if len(got) != 0 {
		t.Errorf("out-of-range scan = %v", got)
	}
	if c, a := tr.RangeScanBatch(50, 20, mem, &b, func(uint64) { t.Fatal("visited") }); c != 0 || a != 0 {
		t.Error("inverted range did work")
	}
}

func TestRangeScanMatchesWalkProperty(t *testing.T) {
	f := func(raw []uint16, loSel, hiSel uint16, fanoutSel uint8) bool {
		fanout := 3 + int(fanoutSel%20)
		tr, err := New(fanout)
		if err != nil {
			return false
		}
		for _, r := range raw {
			tr.InsertKV(uint64(r), 0)
		}
		lo, hi := uint64(loSel), uint64(hiSel)
		if lo > hi {
			lo, hi = hi, lo
		}
		var want []uint64
		tr.Walk(func(k uint64) {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		})
		var got []uint64
		var b memmodel.Batcher
		tr.RangeScanBatch(lo, hi, countingMem{}, &b, func(k uint64) { got = append(got, k) })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRangeScanCostProportionalToRange(t *testing.T) {
	tr, _ := New(168)
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	var mem countingMem
	var b memmodel.Batcher
	_, small := tr.RangeScanBatch(1000, 1100, mem, &b, func(uint64) {})
	_, large := tr.RangeScanBatch(1000, 51000, mem, &b, func(uint64) {})
	if large < 100*small/2 {
		t.Errorf("scan cost not proportional: %d accesses for 100 keys, %d for 50000", small, large)
	}
	// A scan never visits dramatically more than keys + path nodes.
	if large > 80000 {
		t.Errorf("scan of 50000 keys cost %d accesses", large)
	}
}

// newSwapMem builds a small stateful accessor, so the pinned costs
// depend on the order of the accesses, not just their count.
func newSwapMem(t *testing.T) memmodel.Accessor {
	t.Helper()
	p := params.Default()
	acc, err := memmodel.Build(memmodel.ConfigRemoteSwap, p, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// pinnedTree is a fanout-4 tree of depth 2: a root with keys 40, 80,
// 120 and four full leaves, in pre-order from address 0. A node record
// is 88 bytes, entry i starts 16+24i bytes in, its child pointer 8
// bytes after that and its payload slot 16 bytes after; the last child
// pointer is the last entry's payload slot.
//
//	root    @0   [40 80 120]  entries 16 40 64, child pointers 24 48 72 80
//	leaf 0  @88  [10 20 30]   entries 104 128 152
//	leaf 1  @176 [50 60 70]   entries 192 216 240
//	leaf 2  @264 [90 100 110] entries 280 304 328
//	leaf 3  @352 [130 140 150] entries 368 392 416
func pinnedTree(t *testing.T) *Tree {
	t.Helper()
	tr, _ := New(4)
	keys := make([]uint64, 15)
	for i := range keys {
		keys[i] = uint64(i+1) * 10
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkTwinCost prices ops one at a time through Access on twin, the
// swap accessor that saw every earlier op, and compares with cost.
func checkTwinCost(t *testing.T, what string, twin memmodel.Accessor, ops []memmodel.AccessOp, cost params.Duration) {
	t.Helper()
	var want params.Duration
	for _, op := range ops {
		want += twin.Access(op.Addr, op.Write)
	}
	if cost != want {
		t.Errorf("%s: batch cost %d, the same ops one at a time %d", what, cost, want)
	}
}

// TestSearchAccessSequence pins the accesses each search makes: a node's
// header, its binary-search probes, the child pointer it descends
// through, and on a SearchKVBatch hit the payload slot, all as reads in
// one batch, priced as the same reads one at a time would be.
func TestSearchAccessSequence(t *testing.T) {
	tr := pinnedTree(t)
	tr.InsertKV(60, 600) // a payload update: the layout does not move
	rec := &recorder{acc: newSwapMem(t)}
	twin := newSwapMem(t)
	var b memmodel.Batcher
	for _, c := range []struct {
		key   uint64
		kv    bool
		found bool
		addrs []uint64
	}{
		{60, false, true, []uint64{0, 40, 16, 48, 176, 216}},
		{80, false, true, []uint64{0, 40}},
		{65, false, false, []uint64{0, 40, 16, 48, 176, 216, 240}},
		{155, false, false, []uint64{0, 40, 64, 80, 352, 392, 416}},
		{5, false, false, []uint64{0, 40, 16, 24, 88, 128, 104}},
		{60, true, true, []uint64{0, 40, 16, 48, 176, 216, 232}},
		{65, true, false, []uint64{0, 40, 16, 48, 176, 216, 240}},
	} {
		var found bool
		var cost params.Duration
		var accesses uint64
		if c.kv {
			var val uint64
			val, found, cost, accesses = tr.SearchKVBatch(c.key, rec, &b)
			want := uint64(0)
			if c.found {
				want = 600
			}
			if val != want {
				t.Errorf("SearchKVBatch(%d) payload %d, want %d", c.key, val, want)
			}
		} else {
			found, cost, accesses = tr.SearchBatch(c.key, rec, &b)
		}
		what := fmt.Sprintf("search %d (kv %v)", c.key, c.kv)
		if found != c.found {
			t.Errorf("%s: found %v, want %v", what, found, c.found)
		}
		if len(rec.batches) != 1 {
			t.Errorf("%s: priced in %d batches, want 1", what, len(rec.batches))
		}
		for _, op := range rec.ops {
			if op.Write {
				t.Errorf("%s: a search wrote %#x", what, op.Addr)
			}
		}
		checkTwinCost(t, what, twin, rec.ops, cost)
		if got := rec.addrs(); !slices.Equal(got, c.addrs) || accesses != uint64(len(c.addrs)) {
			t.Errorf("%s: %d accesses %v, want %v", what, accesses, got, c.addrs)
		}
		if b.Len() != 0 {
			t.Fatalf("%s: Batcher not empty after the search", what)
		}
	}
}

// TestRangeScanAccessSequence pins a range scan's accesses: a header
// per visited node, the probes that find the range's start, then the
// child pointer before each descent and each key it inspects, up to the
// first key past the range. A scan longer than the flush threshold is
// priced in full batches of that size, and every batch as its ops one
// at a time.
func TestRangeScanAccessSequence(t *testing.T) {
	tr := pinnedTree(t)
	rec := &recorder{acc: newSwapMem(t)}
	twin := newSwapMem(t)
	var b memmodel.Batcher
	var got []uint64
	cost, accesses := tr.RangeScanBatch(55, 95, rec, &b, func(k uint64) { got = append(got, k) })
	if want := []uint64{60, 70, 80, 90}; !slices.Equal(got, want) {
		t.Errorf("scan [55, 95] visited %v, want %v", got, want)
	}
	checkTwinCost(t, "scan [55, 95]", twin, rec.ops, cost)
	wantAddrs := []uint64{
		0, 40, 16, // root header, probes for 55
		48, 176, 216, 192, 216, 240, // into leaf 1: header, probes, keys 60 and 70
		40,                // root key 80
		72, 264, 304, 280, // into leaf 2: header, probes
		280, 304, // keys 90 and 100, past the range
		64, // root key 120, past the range
	}
	if addrs := rec.addrs(); !slices.Equal(addrs, wantAddrs) || accesses != uint64(len(wantAddrs)) {
		t.Errorf("scan [55, 95]: %d accesses %v, want %v", accesses, addrs, wantAddrs)
	}

	// A full scan of a fanout-3 tree: every node's header, the probes
	// for 0 (the middle key, then the left half's), every child pointer
	// and every key.
	big, _ := New(3)
	keys := make([]uint64, 3000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := big.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	var want []uint64
	var walk func(n *node)
	walk = func(n *node) {
		want = append(want, n.base)
		for lo, hi := 0, len(n.keys); lo < hi; hi = (lo + hi) / 2 {
			want = append(want, entryAddr(n, (lo+hi)/2))
		}
		for i := range n.keys {
			if !n.leaf() {
				want = append(want, childPtrAddr(n, i))
				walk(n.children[i])
			}
			want = append(want, entryAddr(n, i))
		}
		if !n.leaf() {
			want = append(want, childPtrAddr(n, len(n.keys)))
			walk(n.children[len(n.keys)])
		}
	}
	walk(big.root)
	if len(want) <= 2*rangeScanFlushThreshold {
		t.Fatalf("full scan makes %d accesses; the test needs more than two flushes", len(want))
	}
	cost, accesses = big.RangeScanBatch(0, 1<<62, rec, &b, func(uint64) {})
	checkTwinCost(t, "full scan", twin, rec.ops, cost)
	for i, n := range rec.batches {
		if last := i == len(rec.batches)-1; (!last && n != rangeScanFlushThreshold) || (last && (n < 1 || n > rangeScanFlushThreshold)) {
			t.Errorf("full scan batch %d of %d holds %d ops", i, len(rec.batches), n)
		}
	}
	if addrs := rec.addrs(); !slices.Equal(addrs, want) || accesses != uint64(len(want)) {
		t.Errorf("full scan: %d accesses, want %d in pre-order", accesses, len(want))
	}
	if b.Len() != 0 {
		t.Fatal("Batcher not empty after RangeScanBatch")
	}
}

// TestSearchBatchZeroAllocSteadyState pins the batched search loop at 0
// allocs/op once the Batcher buffer is warm.
func TestSearchBatchZeroAllocSteadyState(t *testing.T) {
	tr, _ := New(168)
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	mem := newSwapMem(t)
	var b memmodel.Batcher
	b.Grow(256)
	var key uint64
	tr.SearchBatch(0, mem, &b) // warm
	allocs := testing.AllocsPerRun(100, func() {
		key += 7919
		tr.SearchBatch(key%100000, mem, &b)
	})
	if allocs != 0 {
		t.Errorf("batched search: %.1f allocs/op, want 0", allocs)
	}
}

// oracleBulkLoad is the per-node bulk load that BulkLoad's slabs
// replaced, kept as their oracle: a private sorted copy, then one node,
// key slice and payload slice allocated per node, in the same DFS
// pre-order through the layout allocator.
func oracleBulkLoad(t *Tree, keys []uint64) {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	depth := 1
	for capacityAtDepth(t.maxChildren, depth) < uint64(len(sorted)) {
		depth++
	}
	t.root = oracleBuild(t, sorted, depth)
	t.Size = len(sorted)
}

// oracleBuild packs sorted keys into a subtree of exactly the given
// depth, filling left subtrees completely so the last level fills left
// to right.
func oracleBuild(t *Tree, keys []uint64, depth int) *node {
	n := t.newNode()
	if depth == 1 {
		n.keys = append(n.keys, keys...)
		n.vals = make([]uint64, len(n.keys))
		return n
	}
	subCap := capacityAtDepth(t.maxChildren, depth-1)
	for {
		if uint64(len(keys)) <= subCap || len(n.keys) == t.maxKeys() {
			// Everything left fits in the final child.
			n.children = append(n.children, oracleBuild(t, keys, depth-1))
			return n
		}
		n.children = append(n.children, oracleBuild(t, keys[:subCap], depth-1))
		n.keys = append(n.keys, keys[subCap])
		n.vals = append(n.vals, 0)
		keys = keys[subCap+1:]
	}
}

// sameTree reports the first difference between two trees: their
// counts and extent, then node by node in pre-order, each node's base
// address, keys, payloads (nil reads as zero) and child count.
func sameTree(a, b *Tree) error {
	if a.Nodes != b.Nodes || a.Size != b.Size || a.Depth() != b.Depth() || a.FootprintBytes() != b.FootprintBytes() {
		return fmt.Errorf("nodes/size/depth/footprint %d/%d/%d/%d, oracle %d/%d/%d/%d",
			a.Nodes, a.Size, a.Depth(), a.FootprintBytes(), b.Nodes, b.Size, b.Depth(), b.FootprintBytes())
	}
	var rec func(x, y *node) error
	rec = func(x, y *node) error {
		if x.base != y.base || !slices.Equal(x.keys, y.keys) || len(x.children) != len(y.children) {
			return fmt.Errorf("node at %#x (%d keys, %d children), oracle at %#x (%d keys, %d children)",
				x.base, len(x.keys), len(x.children), y.base, len(y.keys), len(y.children))
		}
		for i := range x.keys {
			if x.val(i) != y.val(i) {
				return fmt.Errorf("node at %#x: payload %d is %d, oracle %d", x.base, i, x.val(i), y.val(i))
			}
		}
		for i := range x.children {
			if err := rec(x.children[i], y.children[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if (a.root == nil) != (b.root == nil) {
		return fmt.Errorf("one root is nil")
	}
	if a.root == nil {
		return nil
	}
	return rec(a.root, b.root)
}

// TestBulkLoadMatchesPerNodeOracle: the slab loader builds the tree the
// per-node build did, node for node and address for address, at every
// fanout from 3 to 1024 and at the key counts where shapes change: one
// key, one full leaf and one more, each full-tree capacity and its
// neighbours (capacity+1 leaves an empty chain on the right edge), and
// random counts, sorted and shuffled.
func TestBulkLoadMatchesPerNodeOracle(t *testing.T) {
	const maxN = 200_000
	rng := rand.New(rand.NewSource(3))
	for _, fanout := range []int{3, 4, 5, 7, 8, 16, 64, 168, 1024} {
		type load struct {
			n        int
			shuffled bool
		}
		maxKeys := fanout - 1
		loads := []load{{1, false}, {maxKeys, false}, {maxKeys + 1, false}}
		for d := 2; capacityAtDepth(fanout, d)+2 <= maxN; d++ {
			c := int(capacityAtDepth(fanout, d))
			loads = append(loads, load{c - 1, false}, load{c, false}, load{c + 1, false}, load{c + 2, false})
		}
		for i := 0; i < 3; i++ {
			n := 1 + rng.Intn(30_000)
			loads = append(loads, load{n, false}, load{n, true})
		}
		for _, l := range loads {
			n := l.n
			keys := make([]uint64, n)
			for j := range keys {
				keys[j] = uint64(j)*3 + 1
			}
			if l.shuffled {
				rng.Shuffle(n, func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
			}
			got, _ := New(fanout)
			want, _ := New(fanout)
			if err := got.BulkLoad(keys); err != nil {
				t.Fatal(err)
			}
			oracleBulkLoad(want, keys)
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("fanout %d, %+v: %v", fanout, l, err)
			}
			if err := sameTree(got, want); err != nil {
				t.Fatalf("fanout %d, %+v: %v", fanout, l, err)
			}
		}
	}
}

// TestBulkLoadRetainsSortedKeys: a tree loaded from ascending keys reads
// them in place, yet inserts of new keys and payload updates never
// write through to the caller's slice, and every key keeps its payload.
// Unsorted input is copied and never reordered.
func TestBulkLoadRetainsSortedKeys(t *testing.T) {
	for _, fanout := range []int{3, 8, 168} {
		keys := make([]uint64, 5000)
		for i := range keys {
			keys[i] = uint64(i)*4 + 2
		}
		given := slices.Clone(keys)
		tr, _ := New(fanout)
		if err := tr.BulkLoad(keys); err != nil {
			t.Fatal(err)
		}
		if leaf := tr.root; leaf != nil {
			for !leaf.leaf() {
				leaf = leaf.children[0]
			}
			if &leaf.keys[0] != &keys[0] {
				t.Fatalf("fanout %d: the first leaf does not read the caller's keys in place", fanout)
			}
		}
		want := map[uint64]uint64{}
		for _, k := range keys {
			want[k] = 0
		}
		rng := rand.New(rand.NewSource(int64(fanout)))
		for i := 0; i < 4000; i++ {
			switch i % 4 {
			case 0: // a new or existing key, payload zero
				k := uint64(rng.Intn(20_010))
				tr.InsertKV(k, 0)
				want[k] = 0
			case 1: // a new key between loaded ones, with a payload
				k := uint64(rng.Intn(5000))*4 + 1 + uint64(rng.Intn(2))*2
				v := rng.Uint64() | 1
				tr.InsertKV(k, v)
				want[k] = v
			default: // a payload update of a loaded key
				k := keys[rng.Intn(len(keys))]
				v := rng.Uint64() | 1
				tr.InsertKV(k, v)
				want[k] = v
			}
		}
		if !slices.Equal(keys, given) {
			t.Fatalf("fanout %d: inserts wrote into the caller's key slice", fanout)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if tr.Size != len(want) {
			t.Fatalf("fanout %d: Size %d, want %d", fanout, tr.Size, len(want))
		}
		var b memmodel.Batcher
		for k, v := range want {
			if got, ok := tr.Lookup(k); !ok || got != v {
				t.Fatalf("fanout %d: Lookup(%d) = %d, %v; want %d", fanout, k, got, ok, v)
			}
			if got, ok, _, _ := tr.SearchKVBatch(k, countingMem{}, &b); !ok || got != v {
				t.Fatalf("fanout %d: SearchKVBatch(%d) = %d, %v; want %d", fanout, k, got, ok, v)
			}
		}
	}

	keys := []uint64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	given := slices.Clone(keys)
	tr, _ := New(3)
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	for k := uint64(10); k < 40; k++ {
		tr.InsertKV(k, k)
	}
	tr.InsertKV(1, 7)
	if !slices.Equal(keys, given) {
		t.Fatalf("unsorted keys changed to %v, given %v", keys, given)
	}
}

// TestBulkLoadFootprint pins what a sorted bulk load allocates: node
// slabs and two arenas, with the keys read in place. The per-node build
// it replaced made 121k objects and 8.4 MB on this load.
func TestBulkLoadFootprint(t *testing.T) {
	keys := make([]uint64, 200_000)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	// The least of several readings: TotalAlloc and Mallocs also count
	// other goroutines' allocations.
	bytes, objects := ^uint64(0), ^uint64(0)
	for r := 0; r < 5; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, _ := New(8)
		if err := tr.BulkLoad(keys); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tr)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	if bytes > 3<<20 || objects > 64 {
		t.Errorf("200k-key load at fanout 8 allocated %d bytes in %d objects, want at most %d in 64", bytes, objects, 3<<20)
	}
}

// FuzzBulkLoad loads keys drawn from the input, sorted or not, at a
// fanout drawn from the input, then applies a few InsertKVs. BulkLoad
// must refuse duplicates and nothing else; a loaded tree must keep its
// invariants and every key with its payload, and the caller's slice
// must stay as given.
func FuzzBulkLoad(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0}, uint16(0), true, []byte{4, 0, 9, 2, 0, 5})
	f.Add([]byte{9, 0, 1, 0, 8, 0, 2, 0, 7, 0}, uint16(1), false, []byte{})
	f.Add([]byte{1, 0, 1, 0}, uint16(5), true, []byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte, fanoutSel uint16, sorted bool, ops []byte) {
		fanout := 3 + int(fanoutSel%1022)
		keys := make([]uint64, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			keys = append(keys, uint64(binary.LittleEndian.Uint16(raw[i:])))
		}
		if sorted {
			slices.Sort(keys)
		}
		given := slices.Clone(keys)
		distinct := slices.Clone(keys)
		slices.Sort(distinct)
		dup := len(slices.Compact(distinct)) != len(keys)
		tr, _ := New(fanout)
		err := tr.BulkLoad(keys)
		if !slices.Equal(keys, given) {
			t.Fatalf("BulkLoad changed the caller's keys to %v", keys)
		}
		if dup != (err != nil) {
			t.Fatalf("duplicates %v, BulkLoad error %v", dup, err)
		}
		if err != nil {
			return
		}
		want := map[uint64]uint64{}
		for _, k := range keys {
			want[k] = 0
		}
		for i := 0; i+2 < len(ops) && i < 3*32; i += 3 {
			k, v := uint64(binary.LittleEndian.Uint16(ops[i:])), uint64(ops[i+2])
			tr.InsertKV(k, v)
			want[k] = v
		}
		if !slices.Equal(keys, given) {
			t.Fatalf("inserts changed the caller's keys to %v", keys)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Size != len(want) {
			t.Fatalf("Size %d, want %d", tr.Size, len(want))
		}
		for k, v := range want {
			if got, ok := tr.Lookup(k); !ok || got != v {
				t.Fatalf("Lookup(%d) = %d, %v; want %d", k, got, ok, v)
			}
		}
	})
}
