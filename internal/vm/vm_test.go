package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/params"
)

func TestReserveVirtualDisjoint(t *testing.T) {
	as := NewAddressSpace()
	a, err := as.ReserveVirtual(10 * params.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.ReserveVirtual(1) // rounds to one page
	if err != nil {
		t.Fatal(err)
	}
	if b != a+10*params.PageSize {
		t.Errorf("ranges not adjacent/disjoint: %x then %x", uint64(a), uint64(b))
	}
	if _, err := as.ReserveVirtual(0); err == nil {
		t.Error("zero reservation accepted")
	}
}

func TestMapTranslateUnmap(t *testing.T) {
	as := NewAddressSpace()
	va, _ := as.ReserveVirtual(4 * params.PageSize)
	pa := addr.Phys(0x41000000).WithNode(3) // a remote reservation
	if err := as.MapRange(va, pa, 4); err != nil {
		t.Fatal(err)
	}
	if len(as.pages) != 4 {
		t.Errorf("%d pages mapped, want 4", len(as.pages))
	}
	// The paper's worked translation: virtual offset maps to prefixed
	// physical address with the offset preserved.
	got, err := as.Translate(va + Virt(params.PageSize) + 0xB0)
	if err != nil {
		t.Fatal(err)
	}
	want := pa + params.PageSize + 0xB0
	if got != want {
		t.Errorf("Translate = %v, want %v", got, want)
	}
	if got.Node() != 3 {
		t.Error("translation lost the node prefix")
	}
	if err := as.Unmap(va, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Translate(va); err == nil {
		t.Error("translation survived unmap")
	}
}

func TestMapErrors(t *testing.T) {
	as := NewAddressSpace()
	va, _ := as.ReserveVirtual(2 * params.PageSize)
	if err := as.MapRange(va+1, 0, 1); err == nil {
		t.Error("unaligned va accepted")
	}
	if err := as.MapRange(va, 1, 1); err == nil {
		t.Error("unaligned pa accepted")
	}
	if err := as.MapRange(va, 0, 0); err == nil {
		t.Error("zero pages accepted")
	}
	if err := as.MapRange(va, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := as.MapRange(va+params.PageSize, 0x10000, 1); err == nil {
		t.Error("double map accepted")
	}
	if err := as.Unmap(va, 3); err == nil {
		t.Error("unmap beyond mapping accepted")
	}
	// Failed unmap must not have removed anything.
	if len(as.pages) != 2 {
		t.Errorf("partial unmap happened: %d pages", len(as.pages))
	}
}

func TestTranslateRoundTripProperty(t *testing.T) {
	as := NewAddressSpace()
	va, _ := as.ReserveVirtual(256 * params.PageSize)
	pa := addr.Phys(0x10000000).WithNode(7)
	if err := as.MapRange(va, pa, 256); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32) bool {
		o := uint64(off) % (256 * params.PageSize)
		got, err := as.Translate(va + Virt(o))
		return err == nil && got == pa+addr.Phys(o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPagesFor(t *testing.T) {
	cases := map[uint64]int{1: 1, params.PageSize: 1, params.PageSize + 1: 2, 10 * params.PageSize: 10}
	for in, want := range cases {
		if got := PagesFor(in); got != want {
			t.Errorf("PagesFor(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestVirtHelpers(t *testing.T) {
	v := Virt(0x12345)
	if v.Page() != 0x12000 || v.Offset() != 0x345 {
		t.Errorf("Page/Offset = %x/%x", uint64(v.Page()), v.Offset())
	}
}
