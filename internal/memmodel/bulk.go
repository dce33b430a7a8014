// Bulk pricing: unlike the analytic accessors above (closed-form
// per-line costs), bulk transfers are priced from simulation. A burst's
// cost is not linear in its line count — descriptor amortization, frame
// pipelining against DRAM bank occupancy, and the single cumulative ack
// all bend the curve — so the model runs each (kind, lines) point once
// through the real RMC burst machinery on a one-row cluster at the
// configured mesh distance, and caches the result.
package memmodel

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/params"
	"repro/internal/rmc"
	"repro/internal/sim"
)

// BulkPricer prices one bulk transfer of n contiguous cache lines.
type BulkPricer interface {
	// BulkRead returns the completion time of gathering lines remote
	// cache lines in one operation.
	BulkRead(lines int) params.Duration
}

// BulkModel prices bulk transfers by running them. Hops 0 prices local
// bursts (memory controllers only); hops >= 1 prices remote bursts
// through the full simulated path — doorbell, descriptor frame, mesh
// traversal, per-line bank accesses pipelined behind burst frames, and
// the amortized ack. Transfers larger than one burst's geometry are
// issued as the concurrent burst set the core layer would emit.
type BulkModel struct {
	P    params.Params
	Hops int

	cache map[int]params.Duration
}

// NewBulkModel builds a pricer at the given mesh distance.
func NewBulkModel(p params.Params, hops int) (*BulkModel, error) {
	if hops < 0 || hops > 64 {
		return nil, fmt.Errorf("memmodel: bulk model at %d hops", hops)
	}
	return &BulkModel{P: p, Hops: hops, cache: make(map[int]params.Duration)}, nil
}

// BulkRead implements BulkPricer; each line count runs once and is
// cached.
func (m *BulkModel) BulkRead(lines int) params.Duration {
	if lines <= 0 {
		return 0
	}
	if d, ok := m.cache[lines]; ok {
		return d
	}
	d := m.run(lines)
	m.cache[lines] = d
	return d
}

// Name identifies the model in figure notes.
func (m *BulkModel) Name() string {
	if m.Hops == 0 {
		return "bulk local"
	}
	return fmt.Sprintf("bulk remote (%d hops)", m.Hops)
}

// run builds a 1×(hops+1) mesh with a client at one end and the serving
// node at the other — at 0 hops a 1×1 mesh whose client owns the spans,
// so its memory controllers serve them — issues the transfer as bursts,
// and returns the drain time. The rig is the production machine on one
// shard and without a fault plan: a price belongs to the calibration,
// not to a run's faults. It is the first row of the configured mesh, so
// only the link-latency overrides of that row carry over.
func (m *BulkModel) run(lines int) params.Duration {
	p := m.P
	p.MeshWidth, p.MeshHeight, p.Shards = m.Hops+1, 1, 1
	p.Fabric, p.Faults = params.FabricMesh, nil
	p.LinkLat.Edges = nil
	for _, e := range m.P.LinkLat.Edges {
		if e.AY == 0 && e.BY == 0 && min(e.AX, e.BX) >= 0 && max(e.AX, e.BX) <= m.Hops {
			p.LinkLat.Edges = append(p.LinkLat.Edges, e)
		}
	}
	c, err := cluster.New(p)
	if err != nil {
		panic(fmt.Sprintf("memmodel: bulk pricing rig: %v", err))
	}
	client, dst := c.MustNode(1), addr.NodeID(m.Hops+1)
	// Issue the burst set the core layer would emit for this many
	// lines: full bursts concurrently, contending at the client RMC (or,
	// local, queueing at the controllers).
	maxLines := m.P.BurstMaxLines()
	var last sim.Time
	for off := 0; off < lines; off += maxLines {
		n := min(maxLines, lines-off)
		start := addr.Phys(uint64(off) * params.CacheLineSize)
		if m.Hops > 0 {
			start = start.WithNode(dst)
		}
		req := rmc.BulkRequest{
			Kind:  rmc.BulkRead,
			Spans: []rmc.Span{{Start: start, Lines: n}},
			Done: func(t sim.Time, err error) {
				if err != nil {
					panic(fmt.Sprintf("memmodel: bulk pricing run: %v", err))
				}
				if t > last {
					last = t
				}
			},
		}
		if err := client.IssueBulk(0, req); err != nil {
			panic(fmt.Sprintf("memmodel: bulk pricing request: %v", err))
		}
	}
	c.Set().Run()
	return params.Duration(last)
}

var _ BulkPricer = (*BulkModel)(nil)
