package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/params"
)

func newStore(t *testing.T, size uint64) *Store {
	t.Helper()
	s, err := NewStore(size)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(0); err == nil {
		t.Error("zero-size store accepted")
	}
	if _, err := NewStore(params.PageSize + 1); err == nil {
		t.Error("unaligned store accepted")
	}
	if _, err := NewStore(addr.LocalSpace + params.PageSize); err == nil {
		t.Error("store beyond local space accepted")
	}
}

func TestZeroFill(t *testing.T) {
	s := newStore(t, 1<<20)
	buf := []byte{1, 2, 3, 4}
	if err := s.ReadAt(0x100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4)) {
		t.Errorf("untouched memory read as %v", buf)
	}
	if len(s.frames) != 0 {
		t.Error("reads should not materialize frames")
	}
}

func TestReadAfterWrite(t *testing.T) {
	s := newStore(t, 1<<20)
	want := []byte("memory-hungry applications")
	if err := s.WriteAt(0x4000, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := s.ReadAt(0x4000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read back %q, want %q", got, want)
	}
}

func TestCrossPageAccess(t *testing.T) {
	s := newStore(t, 1<<20)
	// Write spanning three pages.
	want := bytes.Repeat([]byte{0x5A}, 3*params.PageSize)
	start := addr.Phys(params.PageSize - 100)
	if err := s.WriteAt(start, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := s.ReadAt(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("cross-page roundtrip corrupted")
	}
	if s.FramesTouched != 4 {
		t.Errorf("FramesTouched = %d, want 4", s.FramesTouched)
	}
	// Partially-written page: bytes before the write read as zero.
	head := make([]byte, 8)
	if err := s.ReadAt(0, head); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, make([]byte, 8)) {
		t.Errorf("bytes before write = %v", head)
	}
}

func TestBoundsChecking(t *testing.T) {
	s := newStore(t, 1<<20)
	if err := s.WriteAt(addr.Phys(1<<20-4), make([]byte, 8)); err == nil {
		t.Error("write past end accepted")
	}
	if err := s.ReadAt(addr.Phys(1<<20), make([]byte, 1)); err == nil {
		t.Error("read past end accepted")
	}
	if err := s.ReadAt(addr.Phys(0x10).WithNode(3), make([]byte, 1)); err == nil {
		t.Error("prefixed address accepted")
	}
	// Zero-length access at the boundary is fine.
	if err := s.ReadAt(addr.Phys(1<<20), nil); err != nil {
		t.Errorf("zero-length read rejected: %v", err)
	}
}

func TestSparseResidency(t *testing.T) {
	s := newStore(t, 1<<30)
	s.WriteAt(0, []byte{1})
	s.WriteAt(512<<20, []byte{2})
	if got := len(s.frames); got != 2 {
		t.Errorf("%d frames resident, want 2", got)
	}
}

func TestReadWriteRoundTripProperty(t *testing.T) {
	s := newStore(t, 1<<24)
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := addr.Phys(uint64(off) % (1<<24 - uint64(len(data))))
		if err := s.WriteAt(a, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.ReadAt(a, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
