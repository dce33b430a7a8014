package hnc

import (
	"fmt"
	"hash/crc32"

	"repro/internal/addr"
	"repro/internal/ht"
)

// The paper lists "concerns related to communication reliability and
// security" among the components a full deployment needs but does not
// describe. This file supplies the transport-integrity half: a CRC over
// each frame's routing header and payload, and per-peer sequence
// tracking that detects dropped or reordered frames. The RMC protocol
// itself stays simple — integrity failures surface as counted, checkable
// events rather than silent corruption.

// Checksum computes the frame's integrity word over the routing header
// and the encapsulated packet's metadata and data: the CRC-32 (IEEE) of
// the header's 32-byte little-endian image followed by the payload. It
// is allocation-free, so sealing and verifying pooled frames stays off
// the GC entirely. The header words feed a slicing-by-8 update straight
// from registers; the payload, already on the heap, goes through
// hash/crc32 and its hardware path. An empty payload leaves the CRC
// where the header put it, so every scalar frame — a request, a read
// response or a TgtDone, none of which carries bytes — skips the stdlib
// call.
func (f *Frame) Checksum() uint32 {
	// The Posted flag shares the Count word: an in-flight flip would
	// silently change completion semantics, so it must be covered too.
	cw := uint64(f.Payload.Count)
	if f.Payload.Posted {
		cw |= 1 << 63
	}
	crc := crcWord(0, uint64(f.Src)|uint64(f.Dst)<<16|uint64(f.Payload.Cmd)<<32|uint64(f.Payload.SrcUnit)<<40|uint64(f.Payload.SrcTag)<<48)
	crc = crcWord(crc, f.Seq)
	crc = crcWord(crc, uint64(f.Payload.Addr))
	crc = crcWord(crc, cw)
	if len(f.Payload.Data) == 0 {
		return crc
	}
	return crc32.Update(crc, crc32.IEEETable, f.Payload.Data)
}

// crcSlice8 is the slicing-by-8 table for the IEEE polynomial: row 0 is
// crc32.IEEETable, and row k advances a byte's contribution k more bytes.
var crcSlice8 = func() (t [8][256]uint32) {
	t[0] = *crc32.IEEETable
	for i := range 256 {
		crc := t[0][i]
		for k := 1; k < 8; k++ {
			crc = t[0][byte(crc)] ^ crc>>8
			t[k][i] = crc
		}
	}
	return t
}()

// crcWord is crc32.Update(crc, crc32.IEEETable, b) for b the 8-byte
// little-endian image of w, in one slicing-by-8 step. Checksum cannot
// hand a stack header image to the stdlib: its update leaks the slice,
// which would move the image to the heap on every seal and verify.
func crcWord(crc uint32, w uint64) uint32 {
	t := &crcSlice8
	lo := ^crc ^ uint32(w)
	hi := uint32(w >> 32)
	return ^(t[0][hi>>24] ^ t[1][hi>>16&0xff] ^ t[2][hi>>8&0xff] ^ t[3][hi&0xff] ^
		t[4][lo>>24] ^ t[5][lo>>16&0xff] ^ t[6][lo>>8&0xff] ^ t[7][lo&0xff])
}

// Sealed is a frame carrying its checksum, as it travels on an
// unreliable fabric. A Bridge builds and seals one in place (SealRequest,
// SealReply), and the receiving Verifier checks it in place (Accept,
// Receive), so a frame is never copied between the two.
type Sealed struct {
	Frame Frame
	CRC   uint32
}

// ChecksumError reports a sealed frame whose checksum does not match its
// contents: Got is recomputed from the frame, Want is the CRC it carried.
// The message is formatted only when asked for, so rejecting corrupted
// frames in a fault-injected run costs one small allocation, not a
// formatted string.
type ChecksumError struct {
	Frame     Frame
	Got, Want uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("hnc: checksum mismatch on %v: %#x != %#x", &e.Frame, e.Got, e.Want)
}

// Verifier tracks per-peer frame sequences at a receiving RMC and counts
// integrity events: gaps (dropped frames) and regressions (reordering or
// replay). Bridges emit dense sequences starting at 1, so an untouched
// peer window sits at 0 and a first frame above 1 counts the frames
// dropped ahead of it.
type Verifier struct {
	self addr.NodeID
	last peerTable // highest in-window sequence from each source

	// Received, Gaps, Regressions, and Corrupt count events.
	Received, Gaps, Regressions, Corrupt uint64
}

// NewVerifier builds a verifier for one node. Its id must be valid
// (1..addr.MaxNode), as NewBridge requires: a frame's destination is
// checked only against it.
func NewVerifier(self addr.NodeID) (*Verifier, error) {
	if self == 0 || self > addr.MaxNode {
		return nil, fmt.Errorf("hnc: invalid node id %d", self)
	}
	return &Verifier{self: self}, nil
}

// Accept verifies a sealed frame at its receiving node, in place.
// Checksum, destination and source failures return errors; a checksum
// failure is counted as Corrupt and returns a *ChecksumError. Sequence
// anomalies are counted, never refused: a live RMC cannot refuse work
// because an earlier frame was dropped, so a gap or a regression is
// served and surfaces through the metrics layer instead. In-order and
// gap arrivals advance the peer window; a regression leaves it
// untouched, so a replayed max-seq frame cannot poison it.
func (v *Verifier) Accept(s *Sealed) error {
	f := &s.Frame
	if got := f.Checksum(); got != s.CRC {
		v.Corrupt++
		return &ChecksumError{Frame: *f, Got: got, Want: s.CRC}
	}
	switch {
	case f.Dst != v.self:
		return fmt.Errorf("hnc: frame for node %d accepted at node %d", f.Dst, v.self)
	case f.Src == 0 || f.Src > addr.MaxNode:
		return fmt.Errorf("hnc: frame from invalid node %d accepted at node %d", f.Src, v.self)
	}
	v.Received++
	last := v.last.at(f.Src)
	switch {
	case f.Seq == *last+1:
		// In order.
	case f.Seq > *last+1:
		v.Gaps += f.Seq - *last - 1
	default:
		v.Regressions++
		return nil
	}
	*last = f.Seq
	return nil
}

// Receive accepts a sealed frame and decapsulates it in the same step
// into p, the HT packet to replay into the local system: a request's
// address prefix must name this node and is zeroed (paper: "the RMC
// sets to zero those 14 bits and forwards the operation to its local
// system"); a response passes unchanged. A refused frame leaves p
// untouched, and a refused prefix leaves Accept's counts standing. The
// packet is not validated again: the sender's bridge validated it, and
// a matching checksum proves the frame is the one it sealed.
func (v *Verifier) Receive(s *Sealed, p *ht.Packet) error {
	if err := v.Accept(s); err != nil {
		return err
	}
	f := &s.Frame
	if !f.Payload.Cmd.IsRequest() {
		*p = f.Payload
		return nil
	}
	if n := f.Payload.Addr.Node(); n != v.self {
		return fmt.Errorf("hnc: request %v addressed to node %d arrived at node %d", f.Payload, n, v.self)
	}
	*p = f.Payload
	p.Addr = p.Addr.Local()
	return nil
}
