package db

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/splitmix"
)

// HashIndex is the alternative the paper's footnote 3 names: "in-memory
// databases usually implement hash indexes, as this structure presents
// even better performance when it is stored in memory. Thus, by using
// b-trees in this study, we relinquish the advantage over remote swap
// provided by hash indexes when used in remote memory."
//
// It is an open-addressing, linear-probing table of 16-byte buckets in a
// modeled address space: a lookup costs a couple of probes at constant
// remote latency, an order of magnitude fewer memory touches than a
// B-tree walk — exactly the advantage the footnote concedes. Range
// queries, of course, do not exist here; that is what the B-tree buys.
//
// Searches only read the table, so one populated index can serve
// concurrent sweeps; each search reports its probe count as its
// accesses.
type HashIndex struct {
	buckets []hbucket
	// live has bit i set when bucket i holds a key. Keeping it beside
	// the table lets a bucket take exactly its 16 modeled bytes.
	live []uint64
	mask uint64

	// Size counts live keys.
	Size int
}

// hbucket is one modeled 16-byte slot: 8-byte key, 8-byte payload.
type hbucket struct {
	key uint64
	val uint64
}

// HashBucketBytes is the modeled bucket size.
const HashBucketBytes = 16

// maxLoad is the resize threshold (load factor).
const maxLoad = 0.7

// NewHashIndex creates a table sized for the expected key count.
func NewHashIndex(expected int) (*HashIndex, error) {
	if expected < 1 {
		return nil, fmt.Errorf("db: hash index for %d keys", expected)
	}
	capacity := 16
	for float64(expected) > maxLoad*float64(capacity) {
		capacity *= 2
	}
	h := &HashIndex{}
	h.alloc(capacity)
	return h, nil
}

// alloc gives the index an empty table of capacity buckets, a power of
// two.
func (h *HashIndex) alloc(capacity int) {
	h.buckets = make([]hbucket, capacity)
	h.live = make([]uint64, (capacity+63)/64)
	h.mask = uint64(capacity - 1)
}

// isLive reports whether bucket i holds a key.
func (h *HashIndex) isLive(i uint64) bool { return h.live[i/64]&(1<<(i%64)) != 0 }

// bucketAddr returns the modeled address of bucket i.
func (h *HashIndex) bucketAddr(i uint64) uint64 { return i * HashBucketBytes }

// Insert adds or updates a key (function only; population is untimed,
// like the b-tree's).
func (h *HashIndex) Insert(key, val uint64) {
	if float64(h.Size+1) > maxLoad*float64(len(h.buckets)) {
		h.grow()
	}
	i := splitmix.Hash(key) & h.mask
	for {
		if !h.isLive(i) {
			h.buckets[i] = hbucket{key: key, val: val}
			h.live[i/64] |= 1 << (i % 64)
			h.Size++
			return
		}
		if b := &h.buckets[i]; b.key == key {
			b.val = val
			return
		}
		i = (i + 1) & h.mask
	}
}

func (h *HashIndex) grow() {
	old := *h
	h.alloc(2 * len(old.buckets))
	h.Size = 0
	for i, b := range old.buckets {
		if old.isLive(uint64(i)) {
			h.Insert(b.key, b.val)
		}
	}
}

// SearchBatch looks a key up, charging one read per probed bucket to
// mem: the probe sequence is recorded into b and priced in one
// memmodel.Batch call. Linear probing keeps consecutive probes on the
// same page, so even the swap configuration usually pays for one page
// per lookup. b must be empty between calls.
func (h *HashIndex) SearchBatch(key uint64, mem memmodel.Accessor, b *memmodel.Batcher) (val uint64, found bool, cost params.Duration, accesses uint64) {
	i := splitmix.Hash(key) & h.mask
	for {
		b.Read(h.bucketAddr(i))
		if !h.isLive(i) {
			break
		}
		if bk := h.buckets[i]; bk.key == key {
			val, found = bk.val, true
			break
		}
		i = (i + 1) & h.mask
	}
	accesses = uint64(b.Len())
	return val, found, b.Flush(mem), accesses
}
