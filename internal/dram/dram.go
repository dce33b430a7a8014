// Package dram models the per-socket memory controllers of one node:
// each socket's controller is a FIFO single server with a fixed access
// latency plus a service occupancy that bounds its bandwidth. Local
// addresses are interleaved across sockets exactly as the BAR layout in
// package ht distributes them.
package dram

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// RowBytes is the open-row granularity tracked per controller: a typical
// DDR row buffer (8 KiB). Row hits/conflicts are observational — the
// calibrated flat DRAMLatency already averages over row behaviour, so
// tracking does not change timing.
const RowBytes = 8 << 10

// Controller is one socket's memory controller.
type Controller struct {
	res *sim.Resource
	p   params.Params

	// lastRow is the open row (-1 when no row has been activated).
	lastRow int64

	// Reads and Writes count serviced requests; RowHits and RowConflicts
	// count accesses landing in / evicting the open row.
	Reads, Writes         uint64
	RowHits, RowConflicts uint64
}

// NewController creates one socket's controller and registers its
// counters under node/mc labels.
func NewController(eng *sim.Engine, node addr.NodeID, socket int, p params.Params) *Controller {
	c := &Controller{
		res:     sim.NewResource(eng, fmt.Sprintf("node%d/mc%d", node, socket), 0),
		p:       p,
		lastRow: -1,
	}
	ls := metrics.L("node", fmt.Sprintf("%d", node), "mc", fmt.Sprintf("%d", socket))
	m := eng.Metrics()
	m.CounterFunc(metrics.FamDRAMReads, "read requests serviced", ls, func() uint64 { return c.Reads })
	m.CounterFunc(metrics.FamDRAMWrites, "write requests serviced", ls, func() uint64 { return c.Writes })
	m.CounterFunc(metrics.FamDRAMRowHits, "accesses landing in the open row", ls, func() uint64 { return c.RowHits })
	m.CounterFunc(metrics.FamDRAMRowConflicts, "accesses evicting the open row", ls, func() uint64 { return c.RowConflicts })
	return c
}

// Access services one request to local address a arriving at now and
// returns its completion time: the request queues behind earlier ones
// (occupancy), then takes the DRAM access latency. Row-buffer locality
// is tracked for observability; it does not alter timing.
func (c *Controller) Access(now sim.Time, a addr.Phys, write bool) sim.Time {
	done, _ := c.res.Acquire(now, c.p.DRAMOccupancy)
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
	return done + c.p.DRAMLatency
}

// Utilization returns the controller's occupancy fraction.
func (c *Controller) Utilization(elapsed sim.Time) float64 { return c.res.Utilization(elapsed) }

// Bank is the set of controllers of one node plus the socket-interleaved
// routing between them.
type Bank struct {
	ctrls   []*Controller
	memEach uint64
}

// NewBank builds one node's memory controllers.
func NewBank(eng *sim.Engine, node addr.NodeID, p params.Params) *Bank {
	b := &Bank{memEach: p.MemPerNode}
	for s := 0; s < p.SocketsPerNode; s++ {
		b.ctrls = append(b.ctrls, NewController(eng, node, s, p))
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

// Controllers returns the per-socket controllers for inspection.
func (b *Bank) Controllers() []*Controller { return b.ctrls }

// Stats sums reads and writes across the bank.
func (b *Bank) Stats() (reads, writes uint64) {
	for _, c := range b.ctrls {
		reads += c.Reads
		writes += c.Writes
	}
	return
}
