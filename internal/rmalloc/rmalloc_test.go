package rmalloc

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/params"
	"repro/internal/vm"
)

// fakeBacking hands out extents from a bump pointer, optionally failing
// after a byte budget (to test exhaustion), and tracks releases.
type fakeBacking struct {
	next     addr.Phys
	budget   uint64
	used     uint64
	acquired map[addr.Phys]uint64
	releases int
}

func newFakeBacking(budget uint64) *fakeBacking {
	return &fakeBacking{budget: budget, acquired: map[addr.Phys]uint64{}}
}

func (b *fakeBacking) AcquireChunk(size uint64) (addr.Range, error) {
	if b.used+size > b.budget {
		return addr.Range{}, fmt.Errorf("backing exhausted")
	}
	r := addr.Range{Start: b.next.WithNode(3), Size: size}
	b.next += addr.Phys(size)
	b.used += size
	b.acquired[r.Start] = size
	return r, nil
}

func (b *fakeBacking) ReleaseChunk(r addr.Range) error {
	if b.acquired[r.Start] != r.Size {
		return fmt.Errorf("unknown chunk %v", r)
	}
	delete(b.acquired, r.Start)
	b.releases++
	return nil
}

func newHeap(t *testing.T, budget uint64, chunk uint64) (*Heap, *fakeBacking, *vm.AddressSpace) {
	t.Helper()
	as := vm.NewAddressSpace()
	b := newFakeBacking(budget)
	h, err := NewHeap(as, b, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return h, b, as
}

func TestNewHeapValidation(t *testing.T) {
	as := vm.NewAddressSpace()
	if _, err := NewHeap(nil, newFakeBacking(1<<20), 0); err == nil {
		t.Error("nil address space accepted")
	}
	if _, err := NewHeap(as, nil, 0); err == nil {
		t.Error("nil backing accepted")
	}
	if _, err := NewHeap(as, newFakeBacking(1<<20), params.PageSize+1); err == nil {
		t.Error("unaligned chunk size accepted")
	}
}

func TestMallocMapsMemory(t *testing.T) {
	h, b, as := newHeap(t, 1<<30, 1<<20)
	ptr, err := h.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	// The pointer translates to a prefixed physical address: remote
	// memory behind an ordinary pointer.
	pa, err := as.Translate(ptr)
	if err != nil {
		t.Fatalf("malloc'd pointer does not translate: %v", err)
	}
	if pa.Node() != 3 {
		t.Errorf("backing node = %d", pa.Node())
	}
	if h.Grows != 1 || b.used != 1<<20 {
		t.Errorf("grow accounting: Grows=%d used=%d", h.Grows, b.used)
	}
	if sz := h.live[ptr]; sz != 112 { // rounded to 16
		t.Errorf("allocation size = %d, want 112", sz)
	}
	if h.Used != 112 || len(h.live) != 1 {
		t.Errorf("Used=%d live=%d", h.Used, len(h.live))
	}
}

func TestMallocZeroFails(t *testing.T) {
	h, _, _ := newHeap(t, 1<<30, 0)
	if _, err := h.Malloc(0); err == nil {
		t.Error("zero malloc accepted")
	}
}

func TestChunkReuseAcrossAllocs(t *testing.T) {
	h, b, _ := newHeap(t, 1<<30, 1<<20)
	for i := 0; i < 100; i++ {
		if _, err := h.Malloc(1000); err != nil {
			t.Fatal(err)
		}
	}
	// 100 KB of allocations fit one 1 MB chunk.
	if h.Grows != 1 || b.used != 1<<20 {
		t.Errorf("chunk not reused: Grows=%d", h.Grows)
	}
}

func TestLargeAllocationGetsOwnChunk(t *testing.T) {
	h, b, _ := newHeap(t, 1<<30, 1<<20)
	ptr, err := h.Malloc(5 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if b.used < 5<<20 {
		t.Errorf("arena bytes = %d", b.used)
	}
	if err := h.Free(ptr); err != nil {
		t.Fatal(err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	h, _, _ := newHeap(t, 1<<20, 1<<20) // budget: exactly one chunk
	a, err := h.Malloc(512 << 10)
	if err != nil {
		t.Fatal(err)
	}
	bptr, err := h.Malloc(512 << 10)
	if err != nil {
		t.Fatal(err)
	}
	// Heap is full; further growth would exceed the budget.
	if _, err := h.Malloc(64); err == nil {
		t.Error("allocation beyond budget succeeded")
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	// Freed space is reused without growing.
	c, err := h.Malloc(512 << 10)
	if err != nil {
		t.Fatalf("free space not reused: %v", err)
	}
	if c != a {
		t.Errorf("expected first-fit reuse of %#x, got %#x", uint64(a), uint64(c))
	}
	_ = bptr
}

func TestDoubleFree(t *testing.T) {
	h, _, _ := newHeap(t, 1<<20, 1<<20)
	ptr, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(ptr); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(ptr); err == nil {
		t.Error("double free accepted")
	}
	if err := h.Free(vm.Virt(0xdead0)); err == nil {
		t.Error("wild free accepted")
	}
}

func TestCoalescingEnablesBigAlloc(t *testing.T) {
	h, _, _ := newHeap(t, 1<<20, 1<<20)
	var ptrs []vm.Virt
	for i := 0; i < 4; i++ {
		p, err := h.Malloc(256 << 10)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// All four quarters coalesce back into one megabyte.
	if _, err := h.Malloc(1 << 20); err != nil {
		t.Errorf("coalescing failed: %v", err)
	}
}

// TestHeapInvariantsProperty drives random malloc/free and checks that
// live allocations never overlap and Used accounting is exact.
func TestHeapInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h, _, _ := newHeapQuick()
		type allocation struct {
			ptr  vm.Virt
			size uint64
		}
		var live []allocation
		var used uint64
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				size := uint64(op%2048) + 1
				ptr, err := h.Malloc(size)
				if err != nil {
					continue
				}
				rounded := (size + Align - 1) &^ uint64(Align-1)
				for _, l := range live {
					if ptr < l.ptr+vm.Virt(l.size) && l.ptr < ptr+vm.Virt(rounded) {
						return false // overlap
					}
				}
				live = append(live, allocation{ptr, rounded})
				used += rounded
			} else {
				i := int(op) % len(live)
				if err := h.Free(live[i].ptr); err != nil {
					return false
				}
				used -= live[i].size
				live = append(live[:i], live[i+1:]...)
			}
			if h.Used != used || len(h.live) != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newHeapQuick() (*Heap, *fakeBacking, *vm.AddressSpace) {
	as := vm.NewAddressSpace()
	b := newFakeBacking(16 << 20)
	h, err := NewHeap(as, b, 1<<20)
	if err != nil {
		panic(err)
	}
	return h, b, as
}

func TestTrimReleasesIdleArenas(t *testing.T) {
	h, b, as := newHeap(t, 16<<20, 1<<20)
	// Two arenas: one stays live, one becomes fully free.
	p1, err := h.Malloc(512 << 10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := h.Malloc(900 << 10) // forces a second arena
	if err != nil {
		t.Fatal(err)
	}
	if h.Grows != 2 {
		t.Fatalf("expected 2 arenas, got %d", h.Grows)
	}
	if err := h.Free(p2); err != nil {
		t.Fatal(err)
	}
	released, err := h.Trim()
	if err != nil {
		t.Fatal(err)
	}
	if released != 1<<20 {
		t.Errorf("Trim released %d, want one 1 MiB arena", released)
	}
	if b.releases != 1 {
		t.Errorf("backing saw %d releases", b.releases)
	}
	// The live arena survives; its allocation still translates.
	if _, err := as.Translate(p1); err != nil {
		t.Errorf("live allocation unmapped by Trim: %v", err)
	}
	// A partially used arena is never trimmed.
	released, err = h.Trim()
	if err != nil || released != 0 {
		t.Errorf("second Trim = %d, %v", released, err)
	}
	// The heap still works after trimming.
	if _, err := h.Malloc(256 << 10); err != nil {
		t.Fatal(err)
	}
}

func TestTrimThenReleaseCleanly(t *testing.T) {
	h, b, as := newHeap(t, 8<<20, 1<<20)
	ptr, err := h.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(ptr); err != nil {
		t.Fatal(err)
	}
	// With nothing live, Trim returns every arena and unmaps its pages.
	if _, err := h.Trim(); err != nil {
		t.Fatal(err)
	}
	if len(b.acquired) != 0 {
		t.Error("chunks leaked")
	}
	if _, err := as.Translate(ptr); err == nil {
		t.Error("trimmed arena still mapped")
	}
}
