package hnc

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
)

// One pooled frame round trip — build, seal, verify, decapsulate — must
// not allocate once the peers are known: the frame is sealed into one
// slot and verified and decapsulated there, the checksum's header words
// stay in registers, and the bridge and the verifier only advance
// existing per-peer slots. This is the regression tripwire for the RMC
// fast path's per-frame cost.
func TestSealVerifyRoundTripAllocs(t *testing.T) {
	b, err := NewBridge(1)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewBridge(3)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(3)
	payload := make([]byte, 64)
	pkt := ht.Packet{Cmd: ht.CmdWrSized, SrcTag: 1, Addr: addr.Phys(0x1000).WithNode(3), Count: 64, Data: payload}
	var s Sealed
	roundTrip := func() {
		f, err := b.Outbound(pkt)
		if err != nil {
			t.Fatal(err)
		}
		s = Seal(f)
		if err := v.Accept(&s); err != nil {
			t.Fatal(err)
		}
		if _, err := rx.Inbound(&s.Frame); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the per-peer sequence slots.
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(1000, roundTrip); avg != 0 {
		t.Errorf("seal/verify round trip allocates %.2f/op, want 0", avg)
	}
}

// First contact with a peer claims a slot in a table that doubles past
// half full, so a bridge sending to 1,000 new destinations, or a
// verifier hearing from 1,000 new sources, allocates the table's nine
// sizes (8 to 2,048 slots), not one entry per peer.
func TestFirstContactAllocs(t *testing.T) {
	const peers, bound = 1000, 20
	ids := make([]addr.NodeID, peers)
	for i := range ids {
		ids[i] = addr.NodeID(1 + i*(addr.MaxNode-1)/(peers-1))
	}
	if avg := testing.AllocsPerRun(5, func() {
		b, err := NewBridge(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			b.nextSeq(id)
		}
	}); avg > bound {
		t.Errorf("a bridge's first contact with %d peers allocates %.0f times, want at most %d", peers, avg, bound)
	}
	if avg := testing.AllocsPerRun(5, func() {
		v := NewVerifier(1)
		for _, id := range ids {
			s := Seal(Frame{Src: id, Dst: 1, Seq: 1, Payload: ht.Packet{Cmd: ht.CmdTgtDone}})
			if err := v.Accept(&s); err != nil {
				t.Fatal(err)
			}
		}
	}); avg > bound {
		t.Errorf("a verifier's first contact with %d peers allocates %.0f times, want at most %d", peers, avg, bound)
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
