package hnc

import (
	"math/bits"

	"repro/internal/addr"
)

// peerTable holds one sequence word per peer node: a Bridge's last
// sequence sent to each destination, a Verifier's window for each
// source. It is an open-addressed table keyed by node id, with 0 (never
// a valid id) marking an empty slot, kept at most half full and doubled
// past that, so a lookup is a multiply, a shift and a short probe.
// DESIGN §11 says why neither a map nor a last-peer cache: RMCs
// alternate peers, as Figure 7's client and Figure 8's server do.
type peerTable struct {
	slots []peerSlot
	shift uint // 64 - log2(len(slots)): home positions take the hash's top bits
	used  int
}

type peerSlot struct {
	id  addr.NodeID
	seq uint64
}

// minPeerSlots is the first table's size: four peers before it doubles.
const minPeerSlots = 8

// at returns peer id's sequence word, claiming a zeroed slot on first
// contact, so a caller reads and advances it with one probe. id must be
// a valid node id (1..addr.MaxNode).
func (t *peerTable) at(id addr.NodeID) *uint64 {
	if len(t.slots) > 0 {
		mask := uint64(len(t.slots) - 1)
		for i := t.home(id); ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.id == id {
				return &s.seq
			}
			if s.id == 0 {
				if 2*(t.used+1) > len(t.slots) {
					break
				}
				s.id = id
				t.used++
				return &s.seq
			}
		}
	}
	t.grow()
	return t.at(id)
}

// home returns id's preferred slot (Fibonacci multiplicative hash; the
// probe walks forward from here).
func (t *peerTable) home(id addr.NodeID) uint64 {
	return (uint64(id) * 0x9E3779B97F4A7C15) >> t.shift
}

// grow doubles the table (or makes the first one) and reinserts every
// claimed slot.
func (t *peerTable) grow() {
	old := t.slots
	n := max(2*len(old), minPeerSlots)
	t.slots = make([]peerSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := t.home(s.id)
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
