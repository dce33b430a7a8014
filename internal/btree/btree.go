// Package btree implements the database-style index of the paper's
// Section V-B: a B-tree with a parameterizable number of children per
// node, laid out over a byte-addressed memory whose accesses are priced
// by a memmodel.Accessor. Key and structural data live in ordinary Go
// memory (function), while every search walks the modeled layout and
// charges each header read, key probe, and child-pointer read to the
// accessor (timing) — so the same search can be priced under local
// memory, the prototype's remote memory, or remote swap.
//
// Layout follows database practice: each node owns a fixed-size record
// (header + max-keys entries of 24 bytes: key, child pointer, payload
// pointer); the allocator never lets a node straddle a page boundary
// unless the node is bigger than a page. The fanout at which a node
// exactly fills a 4 KiB page (≈168 children) is the optimum Figure 9
// finds for remote swap.
package btree

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/memmodel"
	"repro/internal/params"
)

// Geometry constants of the modeled node record.
const (
	// EntrySize is the bytes per key entry: 8 key + 8 child pointer +
	// 8 payload pointer.
	EntrySize = 24
	// HeaderSize is the per-node metadata record.
	HeaderSize = 16
)

// NodeBytes returns the modeled size of a node with the given maximum
// child count.
func NodeBytes(maxChildren int) uint64 {
	return HeaderSize + uint64(maxChildren-1)*EntrySize
}

// layout is a bump allocator that avoids gratuitous page straddling.
type layout struct {
	next uint64
}

// alloc returns the base address for a node of the given size.
func (l *layout) alloc(size uint64) uint64 {
	const page = params.PageSize
	base := l.next
	if size <= page {
		// If the node would cross a page boundary, start it on the next
		// page instead: a one-page node should cost one fault.
		if base/page != (base+size-1)/page {
			base = (base/page + 1) * page
		}
	} else if base%page != 0 {
		// Multi-page nodes start page-aligned.
		base = (base/page + 1) * page
	}
	l.next = base + size
	return base
}

type node struct {
	base uint64
	keys []uint64
	// vals holds the payload per key (the entry's payload-pointer slot).
	// nil reads as all zero: a bulk-loaded node gets its slice from the
	// first nonzero payload written to it.
	vals     []uint64
	children []*node
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// val returns key i's payload.
func (n *node) val(i int) uint64 {
	if n.vals == nil {
		return 0
	}
	return n.vals[i]
}

// setVal overwrites key i's payload, materializing the payload slice if
// the node has none yet.
func (n *node) setVal(i int, val uint64) {
	if n.vals == nil {
		if val == 0 {
			return
		}
		n.vals = make([]uint64, len(n.keys))
	}
	n.vals[i] = val
}

// insertAt puts a key and its payload at position i. Bulk-loaded key
// slices are capacity-limited, so the insert reallocates rather than
// writing into a neighbour's keys or the caller's sorted array.
func (n *node) insertAt(i int, key, val uint64) {
	if n.vals == nil && val != 0 {
		n.vals = make([]uint64, len(n.keys), len(n.keys)+1)
	}
	n.keys = slices.Insert(n.keys, i, key)
	if n.vals != nil {
		n.vals = slices.Insert(n.vals, i, val)
	}
}

// Tree is the index.
type Tree struct {
	maxChildren int
	root        *node
	lay         layout

	// Nodes counts allocated nodes; Size counts stored keys.
	Nodes int
	Size  int
}

// New creates an empty tree with the given maximum children per node
// (fanout). The minimum useful fanout is 3 (2 keys).
func New(maxChildren int) (*Tree, error) {
	if maxChildren < 3 {
		return nil, fmt.Errorf("btree: fanout %d < 3", maxChildren)
	}
	return &Tree{maxChildren: maxChildren}, nil
}

// maxKeys is the per-node key capacity.
func (t *Tree) maxKeys() int { return t.maxChildren - 1 }

func (t *Tree) newNode() *node { return t.place(&node{}) }

// place gives n the next record in the modeled layout.
func (t *Tree) place(n *node) *node {
	t.Nodes++
	n.base = t.lay.alloc(NodeBytes(t.maxChildren))
	return n
}

// FootprintBytes returns the top of the modeled address space — the
// memory the index occupies, which is what has to fit (or not) in local
// memory under the swap configurations.
func (t *Tree) FootprintBytes() uint64 { return t.lay.next }

// Depth returns the tree height in levels (0 for an empty tree).
func (t *Tree) Depth() int {
	d, n := 0, t.root
	for n != nil {
		d++
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	return d
}

// entryAddr returns the modeled address of entry i in a node.
func entryAddr(n *node, i int) uint64 {
	return n.base + HeaderSize + uint64(i)*EntrySize
}

// childPtrAddr returns the modeled address of child pointer i. Child i
// sits with entry i; the last child (index == len(keys)) reuses the last
// entry's payload slot, keeping the node inside its record.
func childPtrAddr(n *node, i int) uint64 {
	if i >= len(n.keys) {
		if i == 0 {
			return n.base + HeaderSize + 8
		}
		return entryAddr(n, len(n.keys)-1) + 16
	}
	return entryAddr(n, i) + 8
}

// walk records the modeled accesses of a search for key into b: each
// visited node's header, one read per binary-search probe, and the
// child pointer it descends through. It returns the node and index
// holding key, or nil when the key is absent.
func (t *Tree) walk(key uint64, b *memmodel.Batcher) (*node, int) {
	n := t.root
	for n != nil {
		b.Read(n.base)
		lo, hi := 0, len(n.keys)
		for lo < hi {
			mid := (lo + hi) / 2
			b.Read(entryAddr(n, mid))
			switch {
			case n.keys[mid] == key:
				return n, mid
			case n.keys[mid] < key:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		if n.leaf() {
			return nil, 0
		}
		b.Read(childPtrAddr(n, lo))
		n = n.children[lo]
	}
	return nil, 0
}

// SearchBatch looks a key up, pricing its walk through mem in one
// memmodel.Batch call. It returns whether the key exists, the memory
// time, and the number of accesses. b is a scratch buffer the caller
// reuses across searches; it must be empty between calls.
func (t *Tree) SearchBatch(key uint64, mem memmodel.Accessor, b *memmodel.Batcher) (found bool, cost params.Duration, accesses uint64) {
	n, _ := t.walk(key, b)
	accesses = uint64(b.Len())
	return n != nil, b.Flush(mem), accesses
}

// SearchKVBatch is SearchBatch returning the key's payload word as well,
// charging one more read, of the payload slot, on a hit.
func (t *Tree) SearchKVBatch(key uint64, mem memmodel.Accessor, b *memmodel.Batcher) (val uint64, found bool, cost params.Duration, accesses uint64) {
	n, i := t.walk(key, b)
	if n != nil {
		b.Read(entryAddr(n, i) + 16) // payload slot
		val = n.val(i)
	}
	accesses = uint64(b.Len())
	return val, n != nil, b.Flush(mem), accesses
}

// Lookup returns a key's payload word without charging an accessor.
func (t *Tree) Lookup(key uint64) (uint64, bool) {
	n := t.root
	for n != nil {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			return n.val(i), true
		}
		if n.leaf() {
			return 0, false
		}
		n = n.children[i]
	}
	return 0, false
}

// rangeScanFlushThreshold bounds RangeScanBatch's buffered ops so a
// whole-tree scan doesn't grow the Batcher without limit. Batch
// boundaries never change costs or accessor state, so the threshold is
// purely a memory knob.
const rangeScanFlushThreshold = 4096

// RangeScanBatch visits every key in [lo, hi] in ascending order,
// calling fn for each and charging the modeled memory accesses to mem:
// one header read per visited node, one read per inspected key, and one
// pointer read per descended child. The accesses are recorded into b
// and priced in Batch calls of up to rangeScanFlushThreshold ops; b must
// be empty between calls. Range queries are the other database
// operation the paper's short-term plan names; their sequential page
// touch pattern is the friendliest case for both swap and the RMC's
// prefetcher.
func (t *Tree) RangeScanBatch(lo, hi uint64, mem memmodel.Accessor, b *memmodel.Batcher, fn func(uint64)) (cost params.Duration, accesses uint64) {
	if lo > hi {
		return 0, 0
	}
	read := func(a uint64) {
		b.Read(a)
		accesses++
		if b.Len() >= rangeScanFlushThreshold {
			cost += b.Flush(mem)
		}
	}
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		read(n.base) // header
		start, hiIdx := 0, len(n.keys)
		for start < hiIdx {
			mid := (start + hiIdx) / 2
			read(entryAddr(n, mid))
			if n.keys[mid] < lo {
				start = mid + 1
			} else {
				hiIdx = mid
			}
		}
		for i := start; ; i++ {
			if !n.leaf() {
				read(childPtrAddr(n, i))
				rec(n.children[i])
			}
			if i >= len(n.keys) {
				return
			}
			read(entryAddr(n, i))
			k := n.keys[i]
			if k > hi {
				return
			}
			if k >= lo {
				fn(k)
			}
		}
	}
	rec(t.root)
	cost += b.Flush(mem)
	return cost, accesses
}

// InsertKV adds a key with a payload word (the entry layout's payload-
// pointer slot). Inserting an existing key updates its payload.
func (t *Tree) InsertKV(key, val uint64) {
	if t.root == nil {
		t.root = t.newNode()
		t.root.insertAt(0, key, val)
		t.Size++
		return
	}
	if promoted, pval, right, split := t.insert(t.root, key, val); split {
		newRoot := t.newNode()
		newRoot.insertAt(0, promoted, pval)
		newRoot.children = []*node{t.root, right}
		t.root = newRoot
	}
}

// insert descends, splitting overflowing nodes on the way back up.
func (t *Tree) insert(n *node, key, val uint64) (promoted, pval uint64, right *node, split bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		n.setVal(i, val) // update in place
		return 0, 0, nil, false
	}
	if n.leaf() {
		n.insertAt(i, key, val)
		t.Size++
	} else {
		p, pv, r, s := t.insert(n.children[i], key, val)
		if s {
			n.insertAt(i, p, pv)
			n.children = slices.Insert(n.children, i+1, r)
		}
	}
	if len(n.keys) <= t.maxKeys() {
		return 0, 0, nil, false
	}
	return t.split(n)
}

// split divides an overflowing node around its median. The node's
// slices are private by now: the insert that overflowed it reallocated
// any capacity-limited bulk-load slice.
func (t *Tree) split(n *node) (promoted, pval uint64, right *node, split bool) {
	mid := len(n.keys) / 2
	promoted, pval = n.keys[mid], n.val(mid)
	right = t.newNode()
	right.keys = append(right.keys, n.keys[mid+1:]...)
	n.keys = n.keys[:mid]
	if n.vals != nil {
		right.vals = append(right.vals, n.vals[mid+1:]...)
		n.vals = n.vals[:mid]
	}
	if !n.leaf() {
		right.children = append(right.children, n.children[mid+1:]...)
		n.children = n.children[:mid+1]
	}
	return promoted, pval, right, true
}

// BulkLoad builds the paper's population: a minimal-height tree where
// every level but the last is full and the last level fills from the
// left. Keys may arrive unsorted; duplicates are rejected.
//
// Ascending keys are not copied: the leaves read them in place, so after
// a successful BulkLoad the tree owns keys and the caller must not
// modify them. Unsorted keys are copied once and the copy is sorted;
// the caller's slice is never reordered. Either way every payload of
// the loaded tree is zero.
func (t *Tree) BulkLoad(keys []uint64) error {
	if t.root != nil {
		return fmt.Errorf("btree: BulkLoad into non-empty tree")
	}
	if len(keys) == 0 {
		return nil
	}
	sorted := keys
	if !slices.IsSorted(keys) {
		sorted = slices.Clone(keys)
		slices.Sort(sorted)
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return fmt.Errorf("btree: duplicate key %d in BulkLoad", sorted[i])
		}
	}
	depth := 1
	for capacityAtDepth(t.maxChildren, depth) < uint64(len(sorted)) {
		depth++
	}
	t.root = t.newLoader(uint64(len(sorted)), depth).build(sorted, depth)
	t.Size = len(sorted)
	return nil
}

// capacityAtDepth returns the key capacity of a full tree: m^d − 1,
// saturating to avoid overflow.
func capacityAtDepth(m, d int) uint64 {
	cap := uint64(1)
	for i := 0; i < d; i++ {
		next := cap * uint64(m)
		if next/uint64(m) != cap { // overflow: effectively infinite
			return ^uint64(0)
		}
		cap = next
	}
	return cap - 1
}

// slabNodes is the node count of one bulk-load slab chunk.
const slabNodes = 4096

// loader hands out a bulk load's storage: nodes from chunked slabs,
// internal keys and child pointers from two arenas sized exactly up
// front, and leaf keys as subslices of the sorted key array. Every
// slice it hands out is capacity-limited (s[a:b:b]), so a later insert
// reallocates instead of writing into a neighbour.
type loader struct {
	t     *Tree
	slab  []node
	left  uint64 // nodes not yet handed out
	ikeys []uint64
	kids  []*node
}

// newLoader sizes the storage of an n-key tree of the given depth. A
// node handed r keys keeps k = r/(s+1) of them, where s is a full
// child's capacity, and has k full children and one last child holding
// the remaining r − k(s+1) keys. So the totals need one step per level,
// down the path of last children.
func (t *Tree) newLoader(n uint64, depth int) *loader {
	m := uint64(t.maxChildren)
	var nodes, ikeys uint64
	for d := depth; d > 1; d-- {
		s := capacityAtDepth(t.maxChildren, d-1)
		k := n / (s + 1)
		// A full subtree of depth d−1 has 1+m+…+m^(d−2) nodes and s/m
		// internal keys (m^(d−2) − 1).
		fullNodes := s / (m - 1)
		nodes += 1 + k*fullNodes
		ikeys += k + k*(s/m)
		n -= k * (s + 1)
	}
	nodes++ // the last leaf
	return &loader{
		t:     t,
		left:  nodes,
		ikeys: make([]uint64, ikeys),
		kids:  make([]*node, nodes-1),
	}
}

// node places the next node of the pre-order in the modeled layout.
func (l *loader) node() *node {
	if len(l.slab) == 0 {
		l.slab = make([]node, min(l.left, slabNodes))
	}
	n := &l.slab[0]
	l.slab = l.slab[1:]
	l.left--
	return l.t.place(n)
}

// build lays sorted keys into a subtree of exactly the given depth in
// DFS pre-order (a node, then its children left to right), filling left
// subtrees completely so the last level fills left to right.
func (l *loader) build(keys []uint64, depth int) *node {
	n := l.node()
	if depth == 1 {
		n.keys = keys[:len(keys):len(keys)]
		return n
	}
	s := capacityAtDepth(l.t.maxChildren, depth-1)
	k := uint64(len(keys)) / (s + 1)
	n.keys, l.ikeys = l.ikeys[:k:k], l.ikeys[k:]
	n.children, l.kids = l.kids[:k+1:k+1], l.kids[k+1:]
	for i := range n.keys {
		n.children[i] = l.build(keys[:s], depth-1)
		n.keys[i] = keys[s]
		keys = keys[s+1:]
	}
	n.children[k] = l.build(keys, depth-1)
	return n
}

// Walk calls fn for every key in ascending order.
func (t *Tree) Walk(fn func(uint64)) {
	var rec func(*node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		for i, k := range n.keys {
			if !n.leaf() {
				rec(n.children[i])
			}
			fn(k)
		}
		if !n.leaf() {
			rec(n.children[len(n.keys)])
		}
	}
	rec(t.root)
}

// CheckInvariants verifies ordering, uniform leaf depth, payload slices
// (nil or one per key), and that node records stay within their modeled
// layout. Degenerate right-edge nodes
// (fewer than the B-tree minimum of keys) are legal here: the paper's
// left-filled population produces them by design.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return nil
	}
	var leafDepth = -1
	var count int
	var prev *uint64
	var rec func(n *node, depth int) error
	rec = func(n *node, depth int) error {
		if len(n.keys) > t.maxKeys() {
			return fmt.Errorf("btree: node with %d keys exceeds capacity %d", len(n.keys), t.maxKeys())
		}
		if n.vals != nil && len(n.vals) != len(n.keys) {
			return fmt.Errorf("btree: node with %d keys has %d payloads", len(n.keys), len(n.vals))
		}
		if !n.leaf() && len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: node with %d keys has %d children", len(n.keys), len(n.children))
		}
		if n.leaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
		}
		for i, k := range n.keys {
			if !n.leaf() {
				if err := rec(n.children[i], depth+1); err != nil {
					return err
				}
			}
			if prev != nil && *prev >= k {
				return fmt.Errorf("btree: keys out of order: %d then %d", *prev, k)
			}
			kk := k
			prev = &kk
			count++
		}
		if !n.leaf() {
			return rec(n.children[len(n.keys)], depth+1)
		}
		return nil
	}
	if err := rec(t.root, 1); err != nil {
		return err
	}
	if count != t.Size {
		return fmt.Errorf("btree: Size %d but %d keys reachable", t.Size, count)
	}
	return nil
}
