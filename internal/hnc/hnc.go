// Package hnc models the High Node Count HyperTransport extension
// (HNC-HT specification 1.0) as used by the prototype for inter-node
// traffic: plain HyperTransport cannot address more than 32 devices, so
// RMCs encapsulate HT packets in HNC frames carrying 14-bit source and
// destination node identifiers and bridge between the two standards
// (specification Section 7.2 analogue).
//
// A sender's Bridge builds each frame in place and seals it with a CRC;
// the frame crosses the fabric in that slot. The receiver's Verifier
// checks it there, in one step for a request (Receive): Accept's one
// rule refuses a corrupt or misdelivered frame and serves, while
// counting, a sequence gap or regression, and the request's node prefix
// is then checked and cleared.
package hnc

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/ht"
)

// Frame is an HNC-HT frame: an encapsulated HT packet plus the extended
// addressing header that lets it traverse the cluster fabric.
type Frame struct {
	// Src and Dst are cluster node identifiers (1-based; 0 is invalid on
	// the wire, matching the "no node 0" rule).
	Src, Dst addr.NodeID
	// Seq disambiguates frames from the same source (diagnostics only).
	Seq uint64
	// Payload is the encapsulated HT packet.
	Payload ht.Packet
}

// HeaderBytes is the HNC encapsulation overhead per frame.
const HeaderBytes = 8

// WireBytes is the frame's size on a fabric link.
func (f *Frame) WireBytes() int { return HeaderBytes + f.Payload.FlitBytes() }

func (f *Frame) String() string {
	return fmt.Sprintf("hnc{%d->%d seq=%d %v}", f.Src, f.Dst, f.Seq, f.Payload)
}

// Bridge performs the HT ↔ HNC translation an RMC implements. It is
// stateless apart from per-destination frame sequence counters; the
// absence of translation tables is the point of the paper's address
// scheme. Sequences are per destination so a receiving Verifier sees a
// dense stream from each peer regardless of how the sender interleaves
// traffic to other nodes.
type Bridge struct {
	self addr.NodeID
	seq  peerTable // last sequence sent to each destination
}

// NewBridge returns a bridge for the given node.
func NewBridge(self addr.NodeID) (*Bridge, error) {
	if self == 0 || self > addr.MaxNode {
		return nil, fmt.Errorf("hnc: invalid node id %d", self)
	}
	return &Bridge{self: self}, nil
}

// SealRequest bridges a local HT request whose address carries a
// remote node prefix: it builds the frame in s and seals it there. The
// destination is read straight from the 14 prefix bits; the
// encapsulated address keeps its prefix so the remote side can check
// it, mirroring the prototype (the *server* clears the bits). A refused
// packet leaves s untouched and consumes no sequence number.
func (b *Bridge) SealRequest(s *Sealed, p *ht.Packet) error {
	if !p.Cmd.IsRequest() {
		return fmt.Errorf("hnc: outbound of non-request %v", p.Cmd)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	dst := p.Addr.Node()
	if dst == 0 {
		return fmt.Errorf("hnc: address %v is local, nothing to bridge", p.Addr)
	}
	// Loopback frames (dst == self) are legal on the wire but never
	// produced in practice (reservation never hands a node its own
	// memory). The bridge still handles them for completeness.
	b.seal(s, dst, p)
	return nil
}

// SealReply bridges a response back to node to: it builds the frame in
// s and seals it there. A refused packet leaves s untouched and
// consumes no sequence number.
func (b *Bridge) SealReply(s *Sealed, to addr.NodeID, p *ht.Packet) error {
	if !p.Cmd.IsResponse() {
		return fmt.Errorf("hnc: reply with non-response %v", p.Cmd)
	}
	if to == 0 || to > addr.MaxNode {
		return fmt.Errorf("hnc: invalid destination node %d", to)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	b.seal(s, to, p)
	return nil
}

// seal writes the frame carrying p to dst, with dst's next sequence
// number, into s and attaches its checksum. The bridge's own id is
// valid (NewBridge checks it), so a sealed frame's source needs no
// check.
func (b *Bridge) seal(s *Sealed, dst addr.NodeID, p *ht.Packet) {
	f := &s.Frame
	f.Src, f.Dst, f.Seq, f.Payload = b.self, dst, b.nextSeq(dst), *p
	s.CRC = f.Checksum()
}

// nextSeq advances dst's sequence; dst must be a valid node id.
func (b *Bridge) nextSeq(dst addr.NodeID) uint64 {
	s := b.seq.at(dst)
	*s++
	return *s
}
