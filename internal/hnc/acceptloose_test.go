package hnc

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
)

func sealedFrom(t *testing.T, src, dst addr.NodeID, seq uint64) *Sealed {
	t.Helper()
	f := Frame{Src: src, Dst: dst, Seq: seq,
		Payload: ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x40).WithNode(dst), Count: 64}}
	return sealed(f)
}

// TestAcceptLoose checks Accept's one rule, the serving path's loose
// contract: sequence anomalies are counted but the frame is still
// served, while corruption and misdelivery remain hard errors.
func TestAcceptLoose(t *testing.T) {
	v := mustVerifier(t, 3)

	if err := v.Accept(sealedFrom(t, 1, 3, 1)); err != nil {
		t.Fatal(err)
	}
	// A gap of two dropped frames: served anyway, counted.
	if err := v.Accept(sealedFrom(t, 1, 3, 4)); err != nil {
		t.Errorf("gap refused on the serving path: %v", err)
	}
	if v.Gaps != 2 {
		t.Errorf("Gaps = %d, want 2", v.Gaps)
	}
	// A regression (replay): served anyway, counted.
	if err := v.Accept(sealedFrom(t, 1, 3, 2)); err != nil {
		t.Errorf("regression refused on the serving path: %v", err)
	}
	if v.Regressions != 1 {
		t.Errorf("Regressions = %d, want 1", v.Regressions)
	}
	if v.Received != 3 {
		t.Errorf("Received = %d, want 3", v.Received)
	}

	// Corruption still errors.
	s := sealedFrom(t, 1, 3, 5)
	s.CRC ^= 1
	if err := v.Accept(s); err == nil {
		t.Error("corrupt frame accepted")
	}
	if v.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", v.Corrupt)
	}
	// Misdelivery still errors.
	if err := v.Accept(sealedFrom(t, 1, 4, 1)); err == nil {
		t.Error("misdelivered frame accepted")
	}
}

// TestBridgePerDestinationSeq checks each destination sees a dense
// sequence stream regardless of interleaving — the property the
// verifier's gap counter relies on.
func TestBridgePerDestinationSeq(t *testing.T) {
	b, err := NewBridge(1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(dst addr.NodeID) Frame {
		var s Sealed
		if err := b.SealRequest(&s, &ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x40).WithNode(dst), Count: 64}); err != nil {
			t.Fatal(err)
		}
		return s.Frame
	}
	f1, f2, f3, f4 := mk(2), mk(3), mk(2), mk(3)
	if f1.Seq != 1 || f3.Seq != 2 {
		t.Errorf("node 2 stream = %d,%d, want 1,2", f1.Seq, f3.Seq)
	}
	if f2.Seq != 1 || f4.Seq != 2 {
		t.Errorf("node 3 stream = %d,%d, want 1,2", f2.Seq, f4.Seq)
	}
}
