package memmodel

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/swap"
)

// LineCached wraps an accessor with a write-back LRU line cache,
// modeling the processor cache in front of whichever memory backs the
// data. The prototype configures even RMC-mapped ranges write-back
// cacheable (paper Section IV-B), so cache-friendly workloads touch
// remote memory only on line fills — the effect that keeps blackscholes
// and raytrace close to local performance in Figure 11.
type LineCached struct {
	inner Accessor
	lines *swap.PageCache // reused as a line-granule LRU
	p     params.Params

	// Fills counts line fills from the backing memory.
	Fills uint64
}

// DefaultCacheLines sizes the model like a 512 KiB L2 of 64 B lines.
const DefaultCacheLines = 8192

// NewLineCached wraps inner with a cache of the given line count.
func NewLineCached(inner Accessor, p params.Params, lines int) (*LineCached, error) {
	if inner == nil {
		return nil, fmt.Errorf("memmodel: LineCached over nil accessor")
	}
	c, err := swap.NewPageCache(lines)
	if err != nil {
		return nil, err
	}
	return &LineCached{inner: inner, lines: c, p: p}, nil
}

// Access implements Accessor as a batch of one.
func (c *LineCached) Access(a uint64, write bool) params.Duration {
	op := [1]AccessOp{{Addr: a, Write: write}}
	return c.AccessBatch(op[:])
}

// AccessBatch implements Accessor: hits cost the cache latency; a miss
// also fills the line from the backing memory, and a dirty victim
// writes back to it at the victim's own address, so under a Striped or
// Swap backing the stripe or page that holds the line pays.
func (c *LineCached) AccessBatch(ops []AccessOp) params.Duration {
	l1 := c.p.L1Latency
	var total params.Duration
	for _, op := range ops {
		total += l1
		res := c.lines.Touch(op.Addr/params.CacheLineSize, op.Write)
		if res.Hit {
			continue
		}
		c.Fills++
		total += c.inner.Access(op.Addr, false) // line fill
		if res.EvictedDirty {
			total += c.inner.Access(res.Evicted*params.CacheLineSize, true)
		}
	}
	return total
}

// Name implements Accessor.
func (c *LineCached) Name() string { return c.inner.Name() }

// HitRate returns the cache hit fraction.
func (c *LineCached) HitRate() float64 {
	total := c.lines.Hits + c.lines.Misses
	if total == 0 {
		return 0
	}
	return float64(c.lines.Hits) / float64(total)
}
