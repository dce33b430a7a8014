// Package prefetch implements the sequential-stream prefetcher the paper
// names as future work ("the use of prefetching techniques will bring
// the performance closer to local memory"). A per-core detector watches
// demand misses on RMC-mapped lines; when a core touches two consecutive
// lines it declares a stream and asks for the next lines ahead of the
// demand stream. Prefetches ride the ordinary RMC read path — they are
// exactly as constrained by the fabric as demand traffic — and fill the
// cache on arrival, so a streaming workload pays the remote round trip
// once per prefetch distance instead of once per line.
package prefetch

import (
	"fmt"

	"repro/internal/addr"
)

// Detector is a per-core sequential stream detector.
type Detector struct {
	depth    int
	lineSize uint64

	// last maps a core to its previous demand-miss line.
	last map[int]addr.Phys
	// streaming marks cores currently in a detected stream.
	streaming map[int]bool
	// inflight suppresses duplicate prefetches for lines already asked
	// for; the owner clears entries via Completed.
	inflight map[addr.Phys]bool

	// Observed counts demand misses seen; Issued counts prefetch
	// requests produced; Suppressed counts duplicates avoided.
	Observed, Issued, Suppressed uint64
}

// New builds a detector that runs depth lines ahead of a stream.
// depth 0 disables prefetching (the prototype's configuration).
func New(depth int, lineSize uint64) (*Detector, error) {
	if depth < 0 {
		return nil, fmt.Errorf("prefetch: negative depth %d", depth)
	}
	if lineSize == 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("prefetch: line size %d not a power of two", lineSize)
	}
	d := &Detector{depth: depth, lineSize: lineSize}
	if depth > 0 {
		// Depth 0 never writes them, and reads and deletes on nil maps
		// are safe, so a disabled detector is one allocation.
		d.last = make(map[int]addr.Phys)
		d.streaming = make(map[int]bool)
		d.inflight = make(map[addr.Phys]bool)
	}
	return d, nil
}

// Depth returns the configured prefetch distance.
func (d *Detector) Depth() int { return d.depth }

// Observe records a demand miss by core on the given (line-aligned)
// address and returns the lines to prefetch — empty unless the core is
// in a detected ascending stream. Returned lines never cross the owning
// node's address-space boundary: a stream cannot run off the end of a
// reservation into another node's prefix.
func (d *Detector) Observe(core int, line addr.Phys) []addr.Phys {
	if d.depth == 0 {
		return nil
	}
	d.Observed++
	prev, seen := d.last[core]
	d.last[core] = line
	if !seen || line != prev+addr.Phys(d.lineSize) {
		d.streaming[core] = false
		return nil
	}
	d.streaming[core] = true

	var out []addr.Phys
	owner := line.Node()
	for i := 1; i <= d.depth; i++ {
		next := line + addr.Phys(uint64(i)*d.lineSize)
		if next.Node() != owner {
			break // would cross into another node's segment
		}
		if d.inflight[next] {
			d.Suppressed++
			continue
		}
		d.inflight[next] = true
		d.Issued++
		out = append(out, next)
	}
	return out
}

// Streaming reports whether the core is in a detected stream.
func (d *Detector) Streaming(core int) bool { return d.streaming[core] }

// Completed clears the in-flight mark once a prefetch fill arrives (or
// fails), re-allowing the line.
func (d *Detector) Completed(line addr.Phys) { delete(d.inflight, line) }

// InflightCount returns the number of outstanding prefetches.
func (d *Detector) InflightCount() int { return len(d.inflight) }
