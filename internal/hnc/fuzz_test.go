package hnc

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
)

// FuzzFrameIntegrity drives the transport-integrity contract the fault
// injector leans on: a sealed frame with ANY single bit flipped in a
// checksum-covered field — routing header, sequence, payload metadata,
// the Posted flag, the data, or the CRC itself — must be refused by the
// checksum Receive checks first, and the verifier must count it as
// corrupt rather than receive it or advance the peer window.
func FuzzFrameIntegrity(f *testing.F) {
	f.Add([]byte("seed payload"), uint64(1), uint16(3), uint8(0), uint8(0), false)
	f.Add([]byte{}, uint64(9), uint16(0xfff), uint8(6), uint8(31), true)
	f.Add([]byte{0xff, 0x00, 0xaa}, uint64(1<<40), uint16(7), uint8(3), uint8(63), false)

	f.Fuzz(func(t *testing.T, data []byte, seq uint64, tag uint16, field, bit uint8, posted bool) {
		if len(data) > 512 {
			data = data[:512]
		}
		if seq == 0 {
			seq = 1 // bridges emit sequences from 1; 0 is a regression by definition
		}
		fr := Frame{
			Src: 1, Dst: 3, Seq: seq,
			Payload: ht.Packet{
				Cmd: ht.CmdWrSized, SrcTag: tag, Posted: posted,
				Addr: addr.Phys(0x1000).WithNode(3), Count: len(data),
				Data: append([]byte(nil), data...),
			},
		}
		s := sealed(fr)

		// The untampered frame passes a fresh verifier.
		var local ht.Packet
		clean := mustVerifier(t, 3)
		if err := clean.Receive(s, &local); err != nil {
			t.Fatalf("pristine frame refused: %v", err)
		}

		// Flip exactly one bit in a covered location. The mutant keeps
		// the original CRC (or a mutated CRC over the original frame),
		// so the pair can never verify.
		m := *s
		m.Frame.Payload.Data = append([]byte(nil), s.Frame.Payload.Data...)
		switch field % 8 {
		case 0:
			m.Frame.Src ^= 1 << (bit % 14)
		case 1:
			m.Frame.Dst ^= 1 << (bit % 14)
		case 2:
			m.Frame.Seq ^= 1 << (bit % 64)
		case 3:
			m.Frame.Payload.Addr ^= 1 << (bit % 48)
		case 4:
			m.Frame.Payload.Count ^= 1 << (bit % 31)
		case 5:
			m.Frame.Payload.Posted = !m.Frame.Payload.Posted
		case 6:
			if len(m.Frame.Payload.Data) == 0 {
				m.CRC ^= 1 << (bit % 32)
				break
			}
			m.Frame.Payload.Data[int(seq%uint64(len(m.Frame.Payload.Data)))] ^= 1 << (bit % 8)
		default:
			m.CRC ^= 1 << (bit % 32)
		}

		// The checksum alone refuses it: a verifier at the mutant's own
		// destination still reports a *ChecksumError.
		var ce *ChecksumError
		if err := mustVerifier(t, m.Frame.Dst).Receive(&m, &local); !errors.As(err, &ce) {
			t.Fatalf("bit-flipped frame passed its checksum (field %d bit %d): %v", field%8, bit, err)
		}
		v := mustVerifier(t, 3)
		if err := v.Receive(&m, &local); err == nil {
			t.Fatal("bit-flipped frame accepted")
		}
		if v.Corrupt != 1 || v.Received != 0 || v.Gaps != 0 || v.Regressions != 0 {
			t.Fatalf("corrupt frame miscounted: Corrupt=%d Received=%d Gaps=%d Regressions=%d",
				v.Corrupt, v.Received, v.Gaps, v.Regressions)
		}
		// The refused frame left the peer window alone: the pristine
		// frame still arrives in order or as a head gap, never as a
		// regression.
		if err := v.Receive(s, &local); err != nil || v.Regressions != 0 || v.Gaps != seq-1 {
			t.Fatalf("window moved by a refused frame: err=%v Gaps=%d Regressions=%d", err, v.Gaps, v.Regressions)
		}
	})
}
