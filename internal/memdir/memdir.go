// Package memdir is the cluster-wide free-memory directory — the OS
// service augmentation the paper lists ("knowledge of the location of
// free memory across the cluster"). Nodes register their pooled
// capacity; a node running out of memory asks the directory for a donor,
// under a placement policy (most free bytes, or nearest by mesh hops,
// which the microbenchmarks use to position memory servers).
package memdir

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/addr"
	"repro/internal/metrics"
)

// Policy selects a donor among candidates.
type Policy int

// Donor-selection policies.
const (
	// MostFree picks the node with the most free pooled bytes, breaking
	// ties by lowest identifier. Spreads load.
	MostFree Policy = iota
	// Nearest picks the closest node (by the registered distance
	// function) with enough free bytes, breaking ties by most free.
	Nearest
)

// Directory tracks pooled capacity across the cluster.
type Directory struct {
	free map[addr.NodeID]uint64
	dist func(a, b addr.NodeID) int

	// Grants counts successful donor selections.
	Grants uint64
	// Lookups counts donor searches; Rejections counts the ones no node
	// could satisfy.
	Lookups, Rejections uint64

	// granted, set by Instrument, observes each grant's size. The
	// directory-transaction families report only once touched records
	// an instrumented transaction, so a system that never consults the
	// directory snapshots exactly as an uninstrumented build.
	granted *metrics.Histogram
	touched bool
}

// New creates a directory. dist gives inter-node distance for the
// Nearest policy; nil disables that policy.
func New(dist func(a, b addr.NodeID) int) *Directory {
	return &Directory{free: make(map[addr.NodeID]uint64), dist: dist}
}

// Instrument registers the directory-transaction families with reg.
// They report from the first donor search or grant on: snapshots of
// systems whose directory stays idle are byte-identical to snapshots
// taken before this layer existed.
func (d *Directory) Instrument(reg *metrics.Registry) {
	const mb = int64(1) << 20
	d.granted = metrics.NewHistogram([]int64{mb, 16 * mb, 64 * mb, 256 * mb, 1024 * mb, 4096 * mb, 16384 * mb})
	counter := func(name, help string, v *uint64) {
		reg.Counters(name, help, nil, func(e *metrics.Emitter) {
			if d.touched {
				e.Value(float64(*v))
			}
		})
	}
	counter(metrics.FamMemdirLookups, "donor searches against the free-memory directory", &d.Lookups)
	counter(metrics.FamMemdirGrants, "reservations granted by the directory", &d.Grants)
	counter(metrics.FamMemdirRejections, "donor searches no node could satisfy", &d.Rejections)
	reg.Histograms(metrics.FamMemdirGrantedBytes, "bytes per granted reservation", nil, func(e *metrics.Emitter) {
		if d.touched {
			e.Histogram(d.granted)
		}
	})
}

// touch marks the first directory transaction of an instrumented
// directory, from which on its families report.
func (d *Directory) touch() { d.touched = d.granted != nil }

// Register announces a node's pooled capacity (or updates it).
func (d *Directory) Register(n addr.NodeID, bytes uint64) error {
	if n == 0 || n > addr.MaxNode {
		return fmt.Errorf("memdir: invalid node %d", n)
	}
	d.free[n] = bytes
	return nil
}

// Free returns a node's registered free bytes.
func (d *Directory) Free(n addr.NodeID) uint64 { return d.free[n] }

// TotalFree returns the pool-wide free bytes.
func (d *Directory) TotalFree() uint64 {
	var total uint64
	for _, b := range d.free {
		total += b
	}
	return total
}

// FindDonor selects a donor with at least want free bytes for requester
// self (never self: borrowing from yourself is just local allocation).
func (d *Directory) FindDonor(self addr.NodeID, want uint64, policy Policy) (addr.NodeID, error) {
	d.touch()
	d.Lookups++
	type cand struct {
		id   addr.NodeID
		free uint64
	}
	var cands []cand
	for id, f := range d.free {
		if id != self && f >= want {
			cands = append(cands, cand{id, f})
		}
	}
	if len(cands) == 0 {
		d.Rejections++
		return 0, fmt.Errorf("memdir: no node has %d free pooled bytes (cluster free %d)", want, d.TotalFree())
	}
	switch policy {
	case MostFree:
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].free != cands[j].free {
				return cands[i].free > cands[j].free
			}
			return cands[i].id < cands[j].id
		})
	case Nearest:
		if d.dist == nil {
			return 0, fmt.Errorf("memdir: Nearest policy without a distance function")
		}
		sort.Slice(cands, func(i, j int) bool {
			di, dj := d.dist(self, cands[i].id), d.dist(self, cands[j].id)
			if di != dj {
				return di < dj
			}
			if cands[i].free != cands[j].free {
				return cands[i].free > cands[j].free
			}
			return cands[i].id < cands[j].id
		})
	default:
		return 0, fmt.Errorf("memdir: unknown policy %d", policy)
	}
	return cands[0].id, nil
}

// Consume records that a grant took bytes from a node.
func (d *Directory) Consume(n addr.NodeID, bytes uint64) error {
	d.touch()
	f, ok := d.free[n]
	if !ok {
		return fmt.Errorf("memdir: node %d not registered", n)
	}
	if f < bytes {
		return fmt.Errorf("memdir: node %d has %d free, cannot consume %d", n, f, bytes)
	}
	d.free[n] = f - bytes
	d.Grants++
	if d.granted != nil {
		if bytes > math.MaxInt64 {
			d.granted.Observe(math.MaxInt64)
		} else {
			d.granted.Observe(int64(bytes))
		}
	}
	return nil
}

// ReleaseBytes returns capacity to a node. Releasing more than was ever
// consumed (an accounting bug upstream) is refused rather than silently
// wrapping the free count around.
func (d *Directory) ReleaseBytes(n addr.NodeID, bytes uint64) error {
	f, ok := d.free[n]
	if !ok {
		return fmt.Errorf("memdir: node %d not registered", n)
	}
	if f+bytes < f {
		return fmt.Errorf("memdir: releasing %d bytes to node %d overflows its free count %d", bytes, n, f)
	}
	d.free[n] = f + bytes
	return nil
}
