// Package addr implements the physical-address algebra of the paper.
//
// A physical address is 48 bits wide. Its 14 most-significant bits carry
// the identifier of the node owning the memory; the remaining 34 bits are
// the local physical address within that node (enough for 16 GB). Node
// identifiers start at 1: a zero prefix always means "local", so every
// node has the identical memory-map conception of Figure 3 and the RMC
// needs no translation tables. Prefixing a local physical address with
// the owner's identifier (as the reservation protocol of Figure 4 does)
// yields the address remote processors use to reach it.
package addr

import "fmt"

// Widths fixed by the paper's memory map (Figure 3).
const (
	// PrefixBits is the width of the node-identifier prefix.
	PrefixBits = 14

	// LocalBits is the width of the node-local physical address.
	LocalBits = 34

	// TotalBits is the full physical address width.
	TotalBits = PrefixBits + LocalBits

	// LocalSpace is the size of one node's local address space (16 GB).
	LocalSpace uint64 = 1 << LocalBits

	// localMask extracts the node-local part of an address.
	localMask uint64 = LocalSpace - 1

	// MaxNode is the largest representable node identifier.
	MaxNode = 1<<PrefixBits - 1
)

// Phys is a 48-bit physical address in the cluster-wide map.
type Phys uint64

// NodeID identifies a node. Valid node identifiers are 1..MaxNode;
// 0 is reserved to mean "the local node" in address prefixes.
type NodeID uint16

// Node returns the node prefix of the address: 0 for a local address,
// otherwise the identifier of the owning node.
func (a Phys) Node() NodeID { return NodeID(uint64(a) >> LocalBits) }

// Local returns the node-local part of the address (prefix cleared).
// This is the operation a server-side RMC performs on an incoming request
// before replaying it into its local memory system.
func (a Phys) Local() Phys { return Phys(uint64(a) & localMask) }

// IsLocal reports whether the address targets the local node (zero
// prefix). Memory operations on local addresses are routed to an on-board
// memory controller; all others are claimed by the RMC.
func (a Phys) IsLocal() bool { return a.Node() == 0 }

// WithNode returns the address prefixed with the given node identifier,
// as the reservation acknowledgment of Figure 4 does before returning a
// reserved physical range to the requester. It panics if the address
// already carries a prefix or the node identifier is invalid; both are
// programming errors in protocol code.
func (a Phys) WithNode(n NodeID) Phys {
	if !a.IsLocal() {
		panic(fmt.Sprintf("addr: WithNode on already-prefixed address %v", a))
	}
	if n == 0 || n > MaxNode {
		panic(fmt.Sprintf("addr: invalid node id %d", n))
	}
	return a | Phys(uint64(n)<<LocalBits)
}

// String renders the address in the paper's 48-bit hex style.
func (a Phys) String() string { return fmt.Sprintf("0x%012x", uint64(a)) }

// Valid reports whether the address fits in 48 bits.
func (a Phys) Valid() bool { return uint64(a) < 1<<TotalBits }

// Loopback reports whether the address is a loopback reference: a
// prefixed address whose prefix names the node asking. The paper notes
// this overlapped segment exists in every node's map but never occurs in
// practice because reservations are only handed out to other nodes; the
// RMC treats it by replaying locally.
func (a Phys) Loopback(self NodeID) bool { return !a.IsLocal() && a.Node() == self }

// Canonical returns the address as observed by the given node: loopback
// addresses collapse to their local form, all others are unchanged. Two
// addresses that are Canonical-equal name the same memory cell.
func (a Phys) Canonical(self NodeID) Phys {
	if a.Loopback(self) {
		return a.Local()
	}
	return a
}

// Line returns the address rounded down to its cache-line boundary.
func (a Phys) Line(lineSize uint64) Phys { return Phys(uint64(a) &^ (lineSize - 1)) }

// Range is a half-open physical address interval [Start, Start+Size).
type Range struct {
	Start Phys
	Size  uint64
}

// End returns the first address past the range.
func (r Range) End() Phys { return r.Start + Phys(r.Size) }

// Overlaps reports whether two ranges share any address.
func (r Range) Overlaps(o Range) bool {
	return r.Size > 0 && o.Size > 0 && r.Start < o.End() && o.Start < r.End()
}

// Node returns the owning node of the range. Ranges never straddle node
// boundaries in this system: a reservation is carved from one node's
// local memory.
func (r Range) Node() NodeID { return r.Start.Node() }

// String renders the range as [start, end).
func (r Range) String() string { return fmt.Sprintf("[%v, %v)", r.Start, r.End()) }

// NodeBase returns the first cluster-map address owned by the node, i.e.
// the address other nodes use for the node's local address 0.
func NodeBase(n NodeID) Phys {
	if n == 0 || n > MaxNode {
		panic(fmt.Sprintf("addr: invalid node id %d", n))
	}
	return Phys(uint64(n) << LocalBits)
}
