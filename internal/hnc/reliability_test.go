package hnc

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/ht"
)

func mkFrame(t *testing.T, src addr.NodeID, seq uint64, data byte) Frame {
	t.Helper()
	payload := make([]byte, 64)
	payload[0] = data
	return Frame{
		Src: src, Dst: 3, Seq: seq,
		Payload: ht.Packet{Cmd: ht.CmdWrSized, Addr: addr.Phys(0x1000).WithNode(3), Count: 64, Data: payload},
	}
}

// open runs a sealed frame's checksum alone: a fresh verifier at the
// frame's own destination, so only a CRC mismatch can refuse it.
func open(s *Sealed) error {
	v, err := NewVerifier(s.Frame.Dst)
	if err != nil {
		return err
	}
	return v.Accept(s)
}

// acceptFrame seals f and hands it to v.
func acceptFrame(v *Verifier, f Frame) error { return v.Accept(sealed(f)) }

func TestSealOpenRoundTrip(t *testing.T) {
	f := mkFrame(t, 1, 7, 0xAA)
	s := sealed(f)
	if err := open(s); err != nil {
		t.Fatal(err)
	}
	if s.Frame.Seq != 7 || s.Frame.Payload.Data[0] != 0xAA || s.CRC != f.Checksum() {
		t.Error("frame changed through seal/verify")
	}
}

func TestCorruptionDetected(t *testing.T) {
	f := mkFrame(t, 1, 7, 0xAA)
	s := sealed(f)

	// Flip a payload bit.
	s.Frame.Payload.Data[5] ^= 0x40
	if err := open(s); err == nil {
		t.Error("payload corruption undetected")
	}
	s.Frame.Payload.Data[5] ^= 0x40

	// Tamper with the routing header.
	s.Frame.Dst = 4
	if err := open(s); err == nil {
		t.Error("header tampering undetected")
	}
	s.Frame.Dst = 3

	// Tamper with the address (the field that would misroute memory).
	s.Frame.Payload.Addr++
	if err := open(s); err == nil {
		t.Error("address tampering undetected")
	}
}

// A corrupted frame fails with a typed *ChecksumError carrying the frame
// and both CRCs; its message is built only when asked for.
func TestChecksumErrorAs(t *testing.T) {
	s := sealed(mkFrame(t, 1, 7, 0xAA))
	want := s.CRC
	s.Frame.Payload.Data[5] ^= 0x40
	err := mustVerifier(t, 3).Accept(s)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("Accept error %v is not a *ChecksumError", err)
	}
	if ce.Want != want || ce.Got != s.Frame.Checksum() || ce.Frame.Seq != 7 {
		t.Errorf("ChecksumError = {seq %d, got %#x, want %#x}, expected {seq 7, got %#x, want %#x}",
			ce.Frame.Seq, ce.Got, ce.Want, s.Frame.Checksum(), want)
	}
	if msg := err.Error(); !strings.Contains(msg, "checksum mismatch") || !strings.Contains(msg, "seq=7") {
		t.Errorf("message %q does not name the mismatch and the frame", msg)
	}
}

func TestChecksumSensitivityProperty(t *testing.T) {
	// Any single byte flip in the payload changes the checksum.
	f := func(seed []byte, pos uint8, bit uint8) bool {
		data := make([]byte, 64)
		copy(data, seed)
		fr := Frame{Src: 2, Dst: 3, Seq: 9,
			Payload: ht.Packet{Cmd: ht.CmdWrSized, Addr: addr.Phys(64).WithNode(3), Count: 64, Data: data}}
		before := fr.Checksum()
		fr.Payload.Data[int(pos)%64] ^= 1 << (bit % 8)
		return fr.Checksum() != before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVerifierSequencing(t *testing.T) {
	v := mustVerifier(t, 3)
	// In-order stream from node 1.
	for seq := uint64(1); seq <= 3; seq++ {
		if err := acceptFrame(v, mkFrame(t, 1, seq, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if v.Gaps != 0 || v.Regressions != 0 || v.Received != 3 {
		t.Errorf("clean stream flagged: gaps=%d regressions=%d received=%d", v.Gaps, v.Regressions, v.Received)
	}

	// A gap (dropped frames 4 and 5).
	if err := acceptFrame(v, mkFrame(t, 1, 6, 0)); err != nil {
		t.Fatal(err)
	}
	if v.Gaps != 2 {
		t.Errorf("Gaps = %d, want 2", v.Gaps)
	}

	// A regression (replay of frame 2): served and counted.
	s := sealed(mkFrame(t, 1, 2, 0))
	if err := v.Accept(s); err != nil || s.Frame.Seq != 2 {
		t.Errorf("replayed frame not served: seq %d, %v", s.Frame.Seq, err)
	}
	if v.Regressions != 1 || v.Received != 5 {
		t.Errorf("Regressions = %d, Received = %d, want 1 and 5", v.Regressions, v.Received)
	}

	// Streams from different peers are independent.
	if err := acceptFrame(v, mkFrame(t, 2, 1, 0)); err != nil {
		t.Errorf("fresh peer rejected: %v", err)
	}
	if v.Gaps != 2 || v.Regressions != 1 {
		t.Errorf("fresh peer counted as an anomaly: gaps=%d regressions=%d", v.Gaps, v.Regressions)
	}
}

func TestVerifierCorruptCounting(t *testing.T) {
	v := mustVerifier(t, 3)
	s := sealed(mkFrame(t, 1, 1, 0))
	s.Frame.Payload.Data[0] ^= 1
	if err := v.Accept(s); err == nil {
		t.Error("corrupt frame accepted")
	}
	if v.Corrupt != 1 || v.Received != 0 {
		t.Errorf("Corrupt=%d Received=%d", v.Corrupt, v.Received)
	}
	// The refused frame left the peer window alone: the same sequence,
	// intact, arrives in order.
	s.Frame.Payload.Data[0] ^= 1
	if err := v.Accept(s); err != nil || v.Gaps != 0 || v.Regressions != 0 || v.Received != 1 {
		t.Errorf("window moved by a refused frame: err=%v Gaps=%d Regressions=%d Received=%d", err, v.Gaps, v.Regressions, v.Received)
	}
}

func TestVerifierMisdelivery(t *testing.T) {
	v := mustVerifier(t, 5)
	if err := acceptFrame(v, mkFrame(t, 1, 1, 0)); err == nil {
		t.Error("misdelivered frame accepted")
	}
	// A frame from node 0 — never a valid source, and the peer table's
	// empty-slot marker — is refused before it reaches a window.
	if err := acceptFrame(v, Frame{Src: 0, Dst: 5, Seq: 1}); err == nil {
		t.Error("frame from node 0 accepted")
	}
	if v.Received != 0 {
		t.Errorf("refused frames counted as received: %d", v.Received)
	}
}

func TestVerifierWithBridge(t *testing.T) {
	v, b := mustVerifier(t, 3), mustBridge(t, 1)
	f := mkFrame(t, 1, 1, 0x11)
	var s Sealed
	if err := b.SealRequest(&s, &f.Payload); err != nil {
		t.Fatal(err)
	}
	var pkt ht.Packet
	if err := v.Receive(&s, &pkt); err != nil {
		t.Fatal(err)
	}
	if pkt.Addr != 0x1000 || pkt.Data[0] != 0x11 {
		t.Errorf("prefix not cleared or payload changed: %v", pkt)
	}
	if err := b.SealRequest(&s, &f.Payload); err != nil {
		t.Fatal(err)
	}
	s.CRC++
	if err := v.Receive(&s, &pkt); err == nil {
		t.Error("corrupt frame accepted")
	}
	if v.Received != 1 || v.Corrupt != 1 {
		t.Errorf("Received = %d, Corrupt = %d, want 1 and 1", v.Received, v.Corrupt)
	}
}
