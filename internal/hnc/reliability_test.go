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

func TestSealOpenRoundTrip(t *testing.T) {
	f := mkFrame(t, 1, 7, 0xAA)
	s := Seal(f)
	got, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Payload.Data[0] != 0xAA {
		t.Error("frame changed through seal/open")
	}
}

func TestCorruptionDetected(t *testing.T) {
	f := mkFrame(t, 1, 7, 0xAA)
	s := Seal(f)

	// Flip a payload bit.
	s.Frame.Payload.Data[5] ^= 0x40
	if _, err := s.Open(); err == nil {
		t.Error("payload corruption undetected")
	}
	s.Frame.Payload.Data[5] ^= 0x40

	// Tamper with the routing header.
	s.Frame.Dst = 4
	if _, err := s.Open(); err == nil {
		t.Error("header tampering undetected")
	}
	s.Frame.Dst = 3

	// Tamper with the address (the field that would misroute memory).
	s.Frame.Payload.Addr++
	if _, err := s.Open(); err == nil {
		t.Error("address tampering undetected")
	}
}

// A corrupted frame fails with a typed *ChecksumError carrying the frame
// and both CRCs; its message is built only when asked for.
func TestChecksumErrorAs(t *testing.T) {
	s := Seal(mkFrame(t, 1, 7, 0xAA))
	want := s.CRC
	s.Frame.Payload.Data[5] ^= 0x40
	_, err := NewVerifier(3).Accept(s)
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
	v := NewVerifier(3)
	// In-order stream from node 1.
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := v.Accept(Seal(mkFrame(t, 1, seq, 0))); err != nil {
			t.Fatal(err)
		}
	}
	if v.Gaps != 0 || v.Regressions != 0 || v.Received != 3 {
		t.Errorf("clean stream flagged: gaps=%d regressions=%d received=%d", v.Gaps, v.Regressions, v.Received)
	}

	// A gap (dropped frames 4 and 5).
	if _, err := v.Accept(Seal(mkFrame(t, 1, 6, 0))); err != nil {
		t.Fatal(err)
	}
	if v.Gaps != 2 {
		t.Errorf("Gaps = %d, want 2", v.Gaps)
	}

	// A regression (replay of frame 2): served and counted.
	f, err := v.Accept(Seal(mkFrame(t, 1, 2, 0)))
	if err != nil || f.Seq != 2 {
		t.Errorf("replayed frame not served: seq %d, %v", f.Seq, err)
	}
	if v.Regressions != 1 || v.Received != 5 {
		t.Errorf("Regressions = %d, Received = %d, want 1 and 5", v.Regressions, v.Received)
	}

	// Streams from different peers are independent.
	if _, err := v.Accept(Seal(mkFrame(t, 2, 1, 0))); err != nil {
		t.Errorf("fresh peer rejected: %v", err)
	}
	if v.Gaps != 2 || v.Regressions != 1 {
		t.Errorf("fresh peer counted as an anomaly: gaps=%d regressions=%d", v.Gaps, v.Regressions)
	}
}

func TestVerifierCorruptCounting(t *testing.T) {
	v := NewVerifier(3)
	s := Seal(mkFrame(t, 1, 1, 0))
	s.Frame.Payload.Data[0] ^= 1
	if _, err := v.Accept(s); err == nil {
		t.Error("corrupt frame accepted")
	}
	if v.Corrupt != 1 || v.Received != 0 {
		t.Errorf("Corrupt=%d Received=%d", v.Corrupt, v.Received)
	}
}

func TestVerifierMisdelivery(t *testing.T) {
	v := NewVerifier(5)
	if _, err := v.Accept(Seal(mkFrame(t, 1, 1, 0))); err == nil {
		t.Error("misdelivered frame accepted")
	}
}

func TestVerifierWithBridge(t *testing.T) {
	v := NewVerifier(3)
	b, err := NewBridge(3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := v.Accept(Seal(mkFrame(t, 1, 1, 0x11)))
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := b.Inbound(f)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Addr != 0x1000 {
		t.Errorf("prefix not cleared: %v", pkt.Addr)
	}
	bad := Seal(mkFrame(t, 1, 2, 0))
	bad.CRC++
	if _, err := v.Accept(bad); err == nil {
		t.Error("corrupt frame accepted")
	}
}
