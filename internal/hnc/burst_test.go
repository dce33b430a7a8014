package hnc

import (
	"bytes"
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
)

// burstWriteFrame builds one sealed multi-line burst data frame (16
// lines = 1 KiB payload) from node 2 to node 3, through the bridge.
func burstWriteFrame(t *testing.T, payload []byte) *Sealed {
	t.Helper()
	s := new(Sealed)
	if err := mustBridge(t, 2).SealRequest(s, &ht.Packet{
		Cmd:    ht.CmdBulkWr,
		SrcTag: ht.BurstTag(3, 7),
		Addr:   addr.Phys(0x4000).WithNode(3),
		Count:  len(payload),
		Data:   payload,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBurstFrameCRC seals a multi-line data frame and proves the
// checksum covers the whole payload: flipping any byte — first line,
// a middle line, the last byte — is caught by the verifier, and the
// intact frame verifies in place with its burst tag and bytes unchanged.
func TestBurstFrameCRC(t *testing.T) {
	payload := make([]byte, 16*64)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	s := burstWriteFrame(t, payload)

	if err := open(s); err != nil {
		t.Fatalf("intact burst frame rejected: %v", err)
	}
	if !bytes.Equal(s.Frame.Payload.Data, payload) {
		t.Fatal("payload changed in flight")
	}
	if idx, total := ht.BurstIndex(s.Frame.Payload.SrcTag); idx != 3 || total != 7 {
		t.Fatalf("burst tag decoded as %d/%d", idx, total)
	}

	for _, off := range []int{0, 7*64 + 13, len(payload) - 1} {
		corrupted := burstWriteFrame(t, payload)
		corrupted.Frame.Payload.Data = bytes.Clone(payload)
		corrupted.Frame.Payload.Data[off] ^= 0x80
		if err := open(corrupted); err == nil {
			t.Errorf("flipped payload byte %d not caught by the seal", off)
		}
	}

	// The header is covered too: a misrouted burst frame fails its seal.
	misrouted := burstWriteFrame(t, payload)
	misrouted.Frame.Dst = 9
	if err := open(misrouted); err == nil {
		t.Error("rerouted burst frame passed its seal")
	}
}

// TestBurstFrameAmortization pins the framing arithmetic the data plane
// is built on: a 16-line data frame pays one HNC header and one command
// header for 1 KiB, where 16 single-line writes pay sixteen of each.
func TestBurstFrameAmortization(t *testing.T) {
	burst := burstWriteFrame(t, make([]byte, 16*64)).Frame.WireBytes()

	b := mustBridge(t, 2)
	scalar := 0
	for i := 0; i < 16; i++ {
		var s Sealed
		if err := b.SealRequest(&s, &ht.Packet{
			Cmd:   ht.CmdWrSized,
			Addr:  addr.Phys(uint64(0x4000 + i*64)).WithNode(3),
			Count: 64,
			Data:  make([]byte, 64),
		}); err != nil {
			t.Fatal(err)
		}
		scalar += s.Frame.WireBytes()
	}
	if want := 16*64 + HeaderBytes + 8; burst != want {
		t.Errorf("burst frame = %d wire bytes, want %d (one header pair)", burst, want)
	}
	if saved := scalar - burst; saved != 15*(HeaderBytes+8) {
		t.Errorf("burst saves %d bytes over 16 scalar frames, want %d", saved, 15*(HeaderBytes+8))
	}
}
