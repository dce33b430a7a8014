package addr

import (
	"fmt"
	"sort"
	"strings"
)

// MapEntry describes one segment of a node's view of the cluster memory
// map (Figure 3): an address range and the component that claims it.
type MapEntry struct {
	Range  Range
	Target Target
	Owner  NodeID // owning node; 0 for local segments
	Note   string
}

// Target identifies the component a memory operation is forwarded to.
type Target int

// Routing targets in a node's memory map.
const (
	// TargetLocalMC routes to an on-board memory controller.
	TargetLocalMC Target = iota
	// TargetRMC routes to the Remote Memory Controller.
	TargetRMC
)

func (t Target) String() string {
	switch t {
	case TargetLocalMC:
		return "local-MC"
	case TargetRMC:
		return "RMC"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// MemMap is one node's conception of the physical memory map. Every node
// in the cluster has the identical map (that is the point of reserving
// node identifier 0): local memory at the bottom, then one segment per
// node of the cluster claimed by the RMC.
type MemMap struct {
	self     NodeID
	localMem uint64
	nodes    int
	memEach  uint64
}

// NewMemMap builds the map seen by node self in a cluster of nodes nodes
// carrying memEach bytes of local memory each.
func NewMemMap(self NodeID, nodes int, memEach uint64) (*MemMap, error) {
	if self == 0 || int(self) > nodes {
		return nil, fmt.Errorf("addr: node id %d outside cluster of %d nodes", self, nodes)
	}
	if nodes < 1 || nodes > MaxNode {
		return nil, fmt.Errorf("addr: cluster of %d nodes not representable (1..%d)", nodes, MaxNode)
	}
	if memEach == 0 || memEach > LocalSpace {
		return nil, fmt.Errorf("addr: %d bytes per node exceeds the %d-byte local space", memEach, LocalSpace)
	}
	return &MemMap{self: self, localMem: memEach, nodes: nodes, memEach: memEach}, nil
}

// Route returns the target that claims the address in this node's map,
// mirroring the BAR comparison performed by the processors: a zero prefix
// selects a local memory controller, anything else the RMC.
func (m *MemMap) Route(a Phys) (Target, error) {
	if !a.Valid() {
		return 0, fmt.Errorf("addr: %v exceeds the physical address space", a)
	}
	if a.IsLocal() {
		if uint64(a) >= m.localMem {
			return 0, fmt.Errorf("addr: local address %v beyond installed memory (%d bytes)", a, m.localMem)
		}
		return TargetLocalMC, nil
	}
	if int(a.Node()) > m.nodes {
		return 0, fmt.Errorf("addr: %v names node %d outside the %d-node cluster", a, a.Node(), m.nodes)
	}
	if uint64(a.Local()) >= m.memEach {
		return 0, fmt.Errorf("addr: %v beyond node %d's installed memory", a, a.Node())
	}
	return TargetRMC, nil
}

// Entries lists the map segments in ascending address order: the local
// segment followed by one RMC segment per cluster node (including the
// loopback alias of the local node, which exists in the map but is never
// used in practice).
func (m *MemMap) Entries() []MapEntry {
	entries := []MapEntry{{
		Range:  Range{Start: 0, Size: m.localMem},
		Target: TargetLocalMC,
		Owner:  0,
		Note:   "local memory",
	}}
	for n := NodeID(1); int(n) <= m.nodes; n++ {
		note := fmt.Sprintf("node %d via RMC", n)
		if n == m.self {
			note += " (loopback alias, unused)"
		}
		entries = append(entries, MapEntry{
			Range:  Range{Start: NodeBase(n), Size: m.memEach},
			Target: TargetRMC,
			Owner:  n,
			Note:   note,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Range.Start < entries[j].Range.Start })
	return entries
}

// String renders the map in the style of Figure 3.
func (m *MemMap) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memory map as seen by node %d:\n", m.self)
	for _, e := range m.Entries() {
		fmt.Fprintf(&b, "  %v -> %-8v %s\n", e.Range, e.Target, e.Note)
	}
	return b.String()
}
