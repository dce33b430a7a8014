// Package hnc models the High Node Count HyperTransport extension
// (HNC-HT specification 1.0) as used by the prototype for inter-node
// traffic: plain HyperTransport cannot address more than 32 devices, so
// RMCs encapsulate HT packets in HNC frames carrying 14-bit source and
// destination node identifiers and bridge between the two standards
// (specification Section 7.2 analogue).
//
// Frames cross the fabric sealed with a CRC. A receiver checks each one
// with its Verifier, whose one Accept rule refuses a corrupt or
// misdelivered frame and serves, while counting, a sequence gap or
// regression.
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
func (f Frame) WireBytes() int { return HeaderBytes + f.Payload.FlitBytes() }

// Validate reports the first protocol violation in the frame.
func (f Frame) Validate() error {
	switch {
	case f.Src == 0 || f.Src > addr.MaxNode:
		return fmt.Errorf("hnc: invalid source node %d", f.Src)
	case f.Dst == 0 || f.Dst > addr.MaxNode:
		return fmt.Errorf("hnc: invalid destination node %d", f.Dst)
	}
	return f.Payload.Validate()
}

func (f Frame) String() string {
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

// Outbound encapsulates a local HT request whose address carries a remote
// node prefix. The destination is read straight from the 14 prefix bits;
// the encapsulated address keeps its prefix so the remote side can
// validate it, mirroring the prototype (the *server* clears the bits).
func (b *Bridge) Outbound(p ht.Packet) (Frame, error) {
	if !p.Cmd.IsRequest() {
		return Frame{}, fmt.Errorf("hnc: outbound of non-request %v", p.Cmd)
	}
	if err := p.Validate(); err != nil {
		return Frame{}, err
	}
	dst := p.Addr.Node()
	if dst == 0 {
		return Frame{}, fmt.Errorf("hnc: address %v is local, nothing to bridge", p.Addr)
	}
	// Loopback frames (dst == self) are legal on the wire but never
	// produced in practice (reservation never hands a node its own
	// memory). The bridge still handles them for completeness.
	return Frame{Src: b.self, Dst: dst, Seq: b.nextSeq(dst), Payload: p}, nil
}

// Inbound decapsulates a frame arriving from the fabric and returns the
// HT packet to replay into the local system. For requests it zeroes the
// 14 prefix bits (paper: "the RMC sets to zero those 14 bits and forwards
// the operation to its local system"); responses pass through unchanged.
// The frame is read in place.
func (b *Bridge) Inbound(f *Frame) (ht.Packet, error) {
	if err := f.Validate(); err != nil {
		return ht.Packet{}, err
	}
	if f.Dst != b.self {
		return ht.Packet{}, fmt.Errorf("hnc: frame for node %d delivered to node %d", f.Dst, b.self)
	}
	p := f.Payload
	if p.Cmd.IsRequest() {
		if p.Addr.Node() != b.self {
			return ht.Packet{}, fmt.Errorf("hnc: request %v addressed to node %d arrived at node %d", p, p.Addr.Node(), b.self)
		}
		p.Addr = p.Addr.Local()
	}
	return p, nil
}

// Reply encapsulates a response for the requester node.
func (b *Bridge) Reply(to addr.NodeID, p ht.Packet) (Frame, error) {
	if !p.Cmd.IsResponse() {
		return Frame{}, fmt.Errorf("hnc: reply with non-response %v", p.Cmd)
	}
	f := Frame{Src: b.self, Dst: to, Payload: p}
	if err := f.Validate(); err != nil {
		return Frame{}, err
	}
	f.Seq = b.nextSeq(to)
	return f, nil
}

// nextSeq advances dst's sequence; dst must be a valid node id.
func (b *Bridge) nextSeq(dst addr.NodeID) uint64 {
	s := b.seq.at(dst)
	*s++
	return *s
}
