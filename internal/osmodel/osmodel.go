// Package osmodel is the per-node operating-system agent: it owns the
// node's physical zones (private to the local OS, pooled for the
// cluster), runs both sides of the remote-reservation protocol of
// Figure 4, and keeps the hot-plug accounting that tells the node how
// much memory it has effectively gained or lent.
//
// Reservation is software and deliberately not on the access fast path:
// the agent's job is to end with a *prefixed physical range* written
// into the requester's page table, after which every load and store is
// pure hardware.
package osmodel

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/memdir"
	"repro/internal/palloc"
	"repro/internal/params"
)

// PeerResolver finds another node's agent (the message channel of the
// reservation protocol).
type PeerResolver func(addr.NodeID) (*Agent, error)

// grant records an extent this node lent out.
type grant struct {
	to    addr.NodeID
	local addr.Range
}

// Agent is one node's OS.
type Agent struct {
	self  addr.NodeID
	p     params.Params
	dir   *memdir.Directory
	peers PeerResolver

	priv *palloc.Allocator // [0, PrivateMemPerNode): local OS + processes
	pool *palloc.Allocator // [PrivateMemPerNode, MemPerNode): donatable

	granted  map[addr.Phys]grant      // by local start
	borrowed map[addr.Phys]addr.Range // by prefixed start
}

// NewAgent builds a node's OS agent and registers its pooled capacity
// with the directory.
func NewAgent(self addr.NodeID, p params.Params, dir *memdir.Directory) (*Agent, error) {
	if dir == nil {
		return nil, fmt.Errorf("osmodel: nil directory")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	priv, err := palloc.New(addr.Range{Start: 0, Size: p.PrivateMemPerNode})
	if err != nil {
		return nil, err
	}
	pool, err := palloc.New(addr.Range{Start: addr.Phys(p.PrivateMemPerNode), Size: p.PooledMemPerNode()})
	if err != nil {
		return nil, err
	}
	if err := dir.Register(self, p.PooledMemPerNode()); err != nil {
		return nil, err
	}
	return &Agent{
		self:     self,
		p:        p,
		dir:      dir,
		priv:     priv,
		pool:     pool,
		granted:  make(map[addr.Phys]grant),
		borrowed: make(map[addr.Phys]addr.Range),
	}, nil
}

// SetPeers wires the agent to the cluster's other agents.
func (a *Agent) SetPeers(r PeerResolver) { a.peers = r }

// AllocPrivate allocates local process memory from the private zone.
func (a *Agent) AllocPrivate(size uint64) (addr.Range, error) {
	return a.priv.Alloc(size)
}

// FreePrivate releases private-zone memory.
func (a *Agent) FreePrivate(r addr.Range) error {
	return a.priv.Release(r)
}

// PrivateFree returns the free bytes in the private zone.
func (a *Agent) PrivateFree() uint64 { return a.priv.Free() }

// Grant is the donor half of Figure 4: reserve a contiguous pooled
// extent, pin it (the pooled zone is never handed to local processes, so
// pinning is structural), and return the range *prefixed with this
// node's identifier* — the modification that makes the requester's
// loads and stores route here.
func (a *Agent) Grant(requester addr.NodeID, size uint64) (addr.Range, error) {
	if requester == a.self {
		return addr.Range{}, fmt.Errorf("osmodel: node %d asked itself for memory", a.self)
	}
	if requester == 0 || requester > addr.MaxNode {
		return addr.Range{}, fmt.Errorf("osmodel: invalid requester %d", requester)
	}
	local, err := a.pool.Alloc(size)
	if err != nil {
		return addr.Range{}, fmt.Errorf("osmodel: node %d cannot grant %d bytes: %w", a.self, size, err)
	}
	a.granted[local.Start] = grant{to: requester, local: local}
	return addr.Range{Start: local.Start.WithNode(a.self), Size: local.Size}, nil
}

// Revoke is the donor-side release: the requester returns a previously
// granted prefixed range.
func (a *Agent) Revoke(requester addr.NodeID, prefixed addr.Range) error {
	if prefixed.Node() != a.self {
		return fmt.Errorf("osmodel: node %d asked to revoke %v owned by node %d", a.self, prefixed, prefixed.Node())
	}
	local := addr.Range{Start: prefixed.Start.Local(), Size: prefixed.Size}
	g, ok := a.granted[local.Start]
	if !ok {
		return fmt.Errorf("osmodel: no grant at %v", local.Start)
	}
	if g.to != requester {
		return fmt.Errorf("osmodel: grant at %v belongs to node %d, not %d", local.Start, g.to, requester)
	}
	if g.local.Size != local.Size {
		return fmt.Errorf("osmodel: partial revoke %v of grant %v", local, g.local)
	}
	if err := a.pool.Release(local); err != nil {
		return err
	}
	delete(a.granted, local.Start)
	return nil
}

// ReserveRemote is the requester half: find a donor via the directory,
// obtain a grant, and record the borrowed (prefixed) range. The caller
// then maps it into a process address space — hot-plugging the memory.
func (a *Agent) ReserveRemote(size uint64, policy memdir.Policy) (addr.Range, error) {
	if a.peers == nil {
		return addr.Range{}, fmt.Errorf("osmodel: node %d has no peer resolver", a.self)
	}
	rounded := (size + params.PageSize - 1) &^ uint64(params.PageSize-1)
	donor, err := a.dir.FindDonor(a.self, rounded, policy)
	if err != nil {
		return addr.Range{}, err
	}
	return a.ReserveRemoteFrom(donor, rounded)
}

// ReserveRemoteFrom borrows from an explicit donor (experiments place
// memory servers deliberately; the general path goes via ReserveRemote).
func (a *Agent) ReserveRemoteFrom(donor addr.NodeID, size uint64) (addr.Range, error) {
	if a.peers == nil {
		return addr.Range{}, fmt.Errorf("osmodel: node %d has no peer resolver", a.self)
	}
	peer, err := a.peers(donor)
	if err != nil {
		return addr.Range{}, err
	}
	r, err := peer.Grant(a.self, size)
	if err != nil {
		return addr.Range{}, err
	}
	if err := a.dir.Consume(donor, r.Size); err != nil {
		// Roll the grant back rather than leak it.
		if rerr := peer.Revoke(a.self, r); rerr != nil {
			return addr.Range{}, fmt.Errorf("osmodel: %v (and rollback failed: %v)", err, rerr)
		}
		return addr.Range{}, err
	}
	a.borrowed[r.Start] = r
	return r, nil
}

// ReleaseRemote returns a borrowed range to its donor and the directory.
func (a *Agent) ReleaseRemote(r addr.Range) error {
	if _, ok := a.borrowed[r.Start]; !ok {
		return fmt.Errorf("osmodel: node %d does not hold %v", a.self, r)
	}
	donor := r.Node()
	peer, err := a.peers(donor)
	if err != nil {
		return err
	}
	if err := peer.Revoke(a.self, r); err != nil {
		return err
	}
	if err := a.dir.ReleaseBytes(donor, r.Size); err != nil {
		return err
	}
	delete(a.borrowed, r.Start)
	return nil
}

// Allowed implements the RMC protection hook (rmc.Protection): a remote
// node may touch exactly the frames inside a grant it currently holds.
// This is the security component the paper defers — "a process … has no
// access to the memory in other regions" — enforced at the serving RMC.
func (a *Agent) Allowed(requester addr.NodeID, local addr.Range) bool {
	for _, g := range a.granted {
		if g.to == requester && local.Start >= g.local.Start && local.End() <= g.local.End() {
			return true
		}
	}
	return false
}

// BorrowedBytes returns how much remote memory this node currently holds.
func (a *Agent) BorrowedBytes() uint64 {
	var total uint64
	for _, r := range a.borrowed {
		total += r.Size
	}
	return total
}

// GrantedBytes returns how much of this node's memory is lent out.
func (a *Agent) GrantedBytes() uint64 {
	var total uint64
	for _, g := range a.granted {
		total += g.local.Size
	}
	return total
}

// Borrowed lists the prefixed ranges this node holds, by start address
// (so by donor node first).
func (a *Agent) Borrowed() []addr.Range {
	out := make([]addr.Range, 0, len(a.borrowed))
	for _, r := range a.borrowed {
		out = append(out, r)
	}
	slices.SortFunc(out, func(x, y addr.Range) int { return cmp.Compare(x.Start, y.Start) })
	return out
}

// EffectiveMemory returns the memory a process on this node can reach:
// private memory plus current borrowings — the "new degree of freedom"
// of the paper's abstract.
func (a *Agent) EffectiveMemory() uint64 {
	return a.p.PrivateMemPerNode + a.BorrowedBytes()
}
