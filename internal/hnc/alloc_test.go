package hnc

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
)

// One pooled frame round-trip — build, seal, verify, decapsulate — must
// not allocate: frames are values, the CRC runs over a stack buffer, and
// the verifier only mutates existing per-peer window entries. This is
// the regression tripwire for the RMC fast path's per-frame cost.
func TestSealVerifyRoundTripAllocs(t *testing.T) {
	b, err := NewBridge(1)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(3)
	payload := make([]byte, 64)
	pkt := ht.Packet{Cmd: ht.CmdWrSized, SrcTag: 1, Addr: addr.Phys(0x1000).WithNode(3), Count: 64, Data: payload}
	// Warm the per-peer sequence windows so the map entries exist.
	for i := 0; i < 8; i++ {
		f, err := b.Outbound(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Accept(Seal(f)); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(1000, func() {
		f, err := b.Outbound(pkt)
		if err != nil {
			t.Fatal(err)
		}
		s := Seal(f)
		if _, err := v.Accept(s); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("seal/verify round trip allocates %.2f/op, want 0", avg)
	}
}

// Checksum over a 4 KiB payload — a bulk data frame — must not allocate:
// the header words never leave registers and the payload is already on
// the heap when it reaches hash/crc32.
func TestChecksumAllocs(t *testing.T) {
	f := Frame{Src: 1, Dst: 3, Seq: 9, Payload: ht.Packet{Cmd: ht.CmdWrSized, Addr: addr.Phys(0x1000).WithNode(3), Count: 4096, Data: make([]byte, 4096)}}
	var sink uint32
	if avg := testing.AllocsPerRun(1000, func() { sink ^= f.Checksum() }); avg != 0 {
		t.Errorf("4 KiB Checksum allocates %.2f/op, want 0", avg)
	}
	_ = sink
}
