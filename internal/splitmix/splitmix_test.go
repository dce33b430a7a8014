package splitmix

import "testing"

// TestReferenceVector pins the seed-0 stream to splitmix64's published
// reference output, and Hash to the stream's first value.
func TestReferenceVector(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var s Stream
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("seed 0, value %d = %#016x, want %#016x", i, got, w)
		}
	}
	if got := Hash(0); got != want[0] {
		t.Fatalf("Hash(0) = %#016x, want %#016x", got, want[0])
	}
	s = New(Gamma)
	if got := s.Next(); got != want[1] {
		t.Fatalf("seed Gamma, first value %#016x, want seed 0's second %#016x", got, want[1])
	}
}
