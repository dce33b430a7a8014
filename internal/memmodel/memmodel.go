// Package memmodel is the macro evaluation layer: O(1)-per-access
// latency models for the three memory configurations the paper compares
// — all-local memory, the RMC's remote memory (constant line-granular
// latency, Equation 2), and remote/disk swap (page-granular faults over
// an LRU residency, Equation 1). Workload-scale experiments (the b-tree
// study and the PARSEC-class kernels) run here, where single-threaded
// clients make queueing irrelevant; the micro layer (packages sim, rmc,
// mesh) covers the contention studies and is cross-validated against
// this one in the experiments package.
package memmodel

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/swap"
)

// Accessor prices memory accesses, one at a time or a batch at a time.
// Each model has one pricing body that both methods run, so how a
// producer chunks its accesses never changes a cost or the model's
// state.
type Accessor interface {
	// Access returns the cost of one access at byte address a.
	Access(a uint64, write bool) params.Duration
	// AccessBatch prices ops in order and returns their total cost,
	// leaving the accessor as len(ops) Access calls would.
	AccessBatch(ops []AccessOp) params.Duration
	// Name identifies the configuration in figures.
	Name() string
}

// Local models node-local DRAM: every access costs the local latency.
// (The paper's equations charge L_local per access; processor caches are
// deliberately outside the equation on both sides of the comparison.)
type Local struct {
	P params.Params
}

// Access implements Accessor.
func (l Local) Access(uint64, bool) params.Duration { return l.P.DRAMLatency }

// AccessBatch implements Accessor: every access costs the same.
func (l Local) AccessBatch(ops []AccessOp) params.Duration {
	return params.Duration(len(ops)) * l.Access(0, false)
}

// Name implements Accessor.
func (l Local) Name() string { return "local memory" }

// Remote models the prototype's remote memory, Equation (2): every
// access costs the constant line round trip at the given hop distance —
// no locality sensitivity at all, which is exactly its advantage over
// swap under scattered access patterns.
type Remote struct {
	P    params.Params
	Hops int
}

// Access implements Accessor.
func (r Remote) Access(uint64, bool) params.Duration { return r.P.RemoteRoundTrip(r.Hops) }

// AccessBatch implements Accessor: every access costs the same.
func (r Remote) AccessBatch(ops []AccessOp) params.Duration {
	return params.Duration(len(ops)) * r.Access(0, false)
}

// Name implements Accessor.
func (r Remote) Name() string { return "remote memory" }

// Swap models paging, Equation (1): resident pages cost local latency,
// faults cost the OS trap plus the device transfer, dirty evictions pay
// a writeback.
type Swap struct {
	p     params.Params
	cache *swap.PageCache
	name  string
	// Device costs are constant per device; precomputing them keeps the
	// pricing loop free of interface calls.
	faultCost params.Duration // trap overhead + device fault transfer
	wbCost    params.Duration
}

// NewSwap builds a swap accessor with the given resident-page budget.
func NewSwap(p params.Params, dev swap.Device, residentPages int) (*Swap, error) {
	c, err := swap.NewPageCache(residentPages)
	if err != nil {
		return nil, err
	}
	return &Swap{
		p: p, cache: c, name: dev.Name(),
		faultCost: p.SwapTrapOverhead + dev.FaultCost(),
		wbCost:    dev.WritebackCost(),
	}, nil
}

// Access implements Accessor as a batch of one.
func (s *Swap) Access(a uint64, write bool) params.Duration {
	op := [1]AccessOp{{Addr: a, Write: write}}
	return s.AccessBatch(op[:])
}

// AccessBatch implements Accessor: every access pays the local latency,
// and a touch of a non-resident page adds the fault and, when the page
// it evicts is dirty, the writeback.
func (s *Swap) AccessBatch(ops []AccessOp) params.Duration {
	dram, fault, wb := s.p.DRAMLatency, s.faultCost, s.wbCost
	cache := s.cache
	var total params.Duration
	for _, op := range ops {
		total += dram
		res := cache.Touch(op.Addr/params.PageSize, op.Write)
		if res.Hit {
			continue
		}
		total += fault
		if res.EvictedDirty {
			total += wb
		}
	}
	return total
}

// Name implements Accessor.
func (s *Swap) Name() string { return s.name }

// Config names a standard configuration for experiment drivers.
type Config int

// Standard configurations of Figure 11.
const (
	// ConfigLocal is the 128 GB-in-one-box ideal.
	ConfigLocal Config = iota
	// ConfigRemote is the prototype.
	ConfigRemote
	// ConfigRemoteSwap is the remote-paging comparator.
	ConfigRemoteSwap
	// ConfigDiskSwap is classic disk paging.
	ConfigDiskSwap
)

// Build constructs the accessor for a standard configuration at the
// given hop distance and residency budget.
func Build(cfg Config, p params.Params, hops, residentPages int) (Accessor, error) {
	switch cfg {
	case ConfigLocal:
		return Local{P: p}, nil
	case ConfigRemote:
		return Remote{P: p, Hops: hops}, nil
	case ConfigRemoteSwap:
		return NewSwap(p, swap.RemoteDevice{P: p, Hops: hops}, residentPages)
	case ConfigDiskSwap:
		return NewSwap(p, swap.DiskDevice{P: p}, residentPages)
	default:
		return nil, fmt.Errorf("memmodel: unknown config %d", cfg)
	}
}

// String names the configuration.
func (c Config) String() string {
	switch c {
	case ConfigLocal:
		return "local memory"
	case ConfigRemote:
		return "remote memory"
	case ConfigRemoteSwap:
		return "remote swap"
	case ConfigDiskSwap:
		return "disk swap"
	default:
		return fmt.Sprintf("Config(%d)", int(c))
	}
}
