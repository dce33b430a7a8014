// Package dram models the per-socket memory controllers of one node:
// each socket's controller is a FIFO single server with a fixed access
// latency plus a service occupancy that bounds its bandwidth. Local
// memory is split into one contiguous block per socket, and the bank
// picks an address's socket from that split.
package dram

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/params"
	"repro/internal/sim"
)

// RowBytes is the open-row granularity tracked per controller: a typical
// DDR row buffer (8 KiB). Row hits/conflicts are observational — the
// calibrated flat DRAMLatency already averages over row behaviour, so
// tracking does not change timing.
const RowBytes = 8 << 10

// Controller is one socket's memory controller. It keeps only the two
// timings Access reads, and its server by value, so a bank of them is
// one allocation.
type Controller struct {
	res                sim.Resource
	latency, occupancy params.Duration

	// lastRow is the open row (-1 when no row has been activated).
	lastRow int64

	// Reads and Writes count serviced requests; RowHits and RowConflicts
	// count accesses landing in / evicting the open row.
	Reads, Writes         uint64
	RowHits, RowConflicts uint64
}

// NewController returns one socket's controller, idle. Its tallies
// reach the metrics through the cluster, which reports every
// controller's.
func NewController(p params.Params) Controller {
	return Controller{latency: p.DRAMLatency, occupancy: p.DRAMOccupancy, lastRow: -1}
}

// Access services one request to local address a arriving at now and
// returns its completion time: the request queues behind earlier ones
// (occupancy), then takes the DRAM access latency. Row-buffer locality
// is tracked for observability; it does not alter timing.
func (c *Controller) Access(now sim.Time, a addr.Phys, write bool) sim.Time {
	done, _ := c.res.Acquire(now, c.occupancy)
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
	row := int64(uint64(a) / RowBytes)
	switch {
	case row == c.lastRow:
		c.RowHits++
	case c.lastRow >= 0:
		c.RowConflicts++
	}
	c.lastRow = row
	return done + c.latency
}

// Utilization returns the controller's occupancy fraction.
func (c *Controller) Utilization(elapsed sim.Time) float64 { return c.res.Utilization(elapsed) }

// Bank is the set of controllers of one node plus the socket-interleaved
// routing between them.
type Bank struct {
	ctrls   []Controller
	memEach uint64
}

// NewBank builds one node's memory controllers.
func NewBank(p params.Params) *Bank {
	b := &Bank{memEach: p.MemPerNode, ctrls: make([]Controller, p.SocketsPerNode)}
	for s := range b.ctrls {
		b.ctrls[s] = NewController(p)
	}
	return b
}

// Access routes a local-address request to its socket's controller and
// returns the completion time.
func (b *Bank) Access(now sim.Time, a addr.Phys, write bool) (sim.Time, error) {
	if !a.IsLocal() {
		return 0, fmt.Errorf("dram: %v carries a node prefix; only local addresses reach the controllers", a)
	}
	if uint64(a) >= b.memEach {
		return 0, fmt.Errorf("dram: %v beyond installed memory (%d bytes)", a, b.memEach)
	}
	per := b.memEach / uint64(len(b.ctrls))
	s := int(uint64(a) / per)
	if s >= len(b.ctrls) {
		s = len(b.ctrls) - 1
	}
	return b.ctrls[s].Access(now, a, write), nil
}

// AccessLines issues a run of lines consecutive cache-line accesses from
// local address start, all arriving at now in address order, and returns
// the last completion time. Controller occupancy serializes the lines —
// the pipelined bank run every burst and local bulk transfer is priced
// with.
func (b *Bank) AccessLines(now sim.Time, start addr.Phys, lines int, write bool) (sim.Time, error) {
	done := now
	for i := 0; i < lines; i++ {
		t, err := b.Access(now, start+addr.Phys(i*params.CacheLineSize), write)
		if err != nil {
			return 0, err
		}
		done = max(done, t)
	}
	return done, nil
}

// Controllers returns the per-socket controllers for inspection.
func (b *Bank) Controllers() []Controller { return b.ctrls }

// Stats sums reads and writes across the bank.
func (b *Bank) Stats() (reads, writes uint64) {
	for s := range b.ctrls {
		reads += b.ctrls[s].Reads
		writes += b.ctrls[s].Writes
	}
	return
}
