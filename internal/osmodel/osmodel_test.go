package osmodel

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/memdir"
	"repro/internal/mesh"
	"repro/internal/params"
)

// world builds agents for every node of the default 4x4 prototype.
type world struct {
	dir    *memdir.Directory
	agents map[addr.NodeID]*Agent
}

func newWorld(t *testing.T) *world {
	t.Helper()
	p := params.Default()
	topo, err := mesh.NewTopology(p.MeshWidth, p.MeshHeight)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{
		dir:    memdir.New(func(a, b addr.NodeID) int { return topo.Hops(a, b) }),
		agents: map[addr.NodeID]*Agent{},
	}
	resolver := func(n addr.NodeID) (*Agent, error) {
		a, ok := w.agents[n]
		if !ok {
			return nil, fmt.Errorf("no agent %d", n)
		}
		return a, nil
	}
	for i := 1; i <= topo.Nodes(); i++ {
		a, err := NewAgent(addr.NodeID(i), p, w.dir)
		if err != nil {
			t.Fatal(err)
		}
		a.SetPeers(resolver)
		w.agents[addr.NodeID(i)] = a
	}
	return w
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(1, params.Default(), nil); err == nil {
		t.Error("nil directory accepted")
	}
	bad := params.Default()
	bad.MeshWidth = 0
	if _, err := NewAgent(1, bad, memdir.New(nil)); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestZonesAndRegistration(t *testing.T) {
	w := newWorld(t)
	p := params.Default()
	a := w.agents[1]
	if a.PrivateFree() != p.PrivateMemPerNode {
		t.Errorf("PrivateFree = %d", a.PrivateFree())
	}
	if a.pool.Free() != p.PooledMemPerNode() {
		t.Errorf("pooled zone free = %d", a.pool.Free())
	}
	if w.dir.TotalFree() != p.PoolSize() {
		t.Errorf("directory pool = %d, want 128 GiB", w.dir.TotalFree())
	}
}

func TestPrivateAllocation(t *testing.T) {
	w := newWorld(t)
	a := w.agents[1]
	r, err := a.AllocPrivate(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Start.IsLocal() {
		t.Error("private allocation carries a prefix")
	}
	if err := a.FreePrivate(r); err != nil {
		t.Fatal(err)
	}
}

func TestReservationProtocolFig4(t *testing.T) {
	w := newWorld(t)
	p := params.Default()
	requester, donorID := w.agents[1], addr.NodeID(3)

	r, err := requester.ReserveRemoteFrom(donorID, 4<<30)
	if err != nil {
		t.Fatal(err)
	}
	// The granted range is prefixed with the donor's identifier and lies
	// in the donor's pooled zone.
	if r.Node() != donorID {
		t.Errorf("grant prefix = %d, want %d", r.Node(), donorID)
	}
	if uint64(r.Start.Local()) < p.PrivateMemPerNode {
		t.Errorf("grant %v cuts into the donor's private zone", r)
	}
	if r.Size != 4<<30 {
		t.Errorf("grant size = %d", r.Size)
	}
	if last := r.End() - 1; last.Node() != donorID {
		t.Errorf("grant %v ends on node %d", r, last.Node())
	}

	donor := w.agents[donorID]
	if donor.GrantedBytes() != 4<<30 {
		t.Errorf("donor GrantedBytes = %d", donor.GrantedBytes())
	}
	if requester.BorrowedBytes() != 4<<30 {
		t.Errorf("requester BorrowedBytes = %d", requester.BorrowedBytes())
	}
	if got := requester.EffectiveMemory(); got != p.PrivateMemPerNode+4<<30 {
		t.Errorf("EffectiveMemory = %d", got)
	}
	if w.dir.Free(donorID) != p.PooledMemPerNode()-4<<30 {
		t.Errorf("directory out of sync: %d", w.dir.Free(donorID))
	}

	// Release restores everything.
	if err := requester.ReleaseRemote(r); err != nil {
		t.Fatal(err)
	}
	if donor.GrantedBytes() != 0 || requester.BorrowedBytes() != 0 {
		t.Error("release did not clear accounting")
	}
	if w.dir.Free(donorID) != p.PooledMemPerNode() {
		t.Error("directory not restored")
	}
}

func TestReserveRemotePolicies(t *testing.T) {
	w := newWorld(t)
	// Nearest: node 1 at (0,0) should get node 2 or 5 (1 hop).
	r, err := w.agents[1].ReserveRemote(1<<30, memdir.Nearest)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Node(); n != 2 && n != 5 {
		t.Errorf("Nearest donor = %d, want a 1-hop neighbor", n)
	}
	// MostFree now avoids the one that just donated.
	r2, err := w.agents[1].ReserveRemote(1<<30, memdir.MostFree)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Node() == r.Node() {
		t.Errorf("MostFree picked the depleted donor %d", r2.Node())
	}
}

func TestGrantValidation(t *testing.T) {
	w := newWorld(t)
	a := w.agents[2]
	if _, err := a.Grant(2, 1<<20); err == nil {
		t.Error("self-grant accepted")
	}
	if _, err := a.Grant(0, 1<<20); err == nil {
		t.Error("grant to node 0 accepted")
	}
	if _, err := a.Grant(1, 100<<30); err == nil {
		t.Error("grant beyond pooled zone accepted")
	}
}

func TestRevokeValidation(t *testing.T) {
	w := newWorld(t)
	donor := w.agents[3]
	r, err := donor.Grant(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong owner prefix.
	if err := donor.Revoke(1, addr.Range{Start: addr.Phys(0x1000).WithNode(4), Size: 1 << 20}); err == nil {
		t.Error("revoke of foreign range accepted")
	}
	// Wrong requester.
	if err := donor.Revoke(2, r); err == nil {
		t.Error("revoke by non-holder accepted")
	}
	// Partial revoke.
	half := addr.Range{Start: r.Start, Size: r.Size / 2}
	if err := donor.Revoke(1, half); err == nil {
		t.Error("partial revoke accepted")
	}
	// Unknown grant.
	bogus := addr.Range{Start: addr.Phys(uint64(r.Start.Local()) + 8<<20).WithNode(3), Size: 1 << 20}
	if err := donor.Revoke(1, bogus); err == nil {
		t.Error("revoke of unknown grant accepted")
	}
	if err := donor.Revoke(1, r); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseRemoteValidation(t *testing.T) {
	w := newWorld(t)
	if err := w.agents[1].ReleaseRemote(addr.Range{Start: addr.Phys(0x1000).WithNode(2), Size: 1 << 20}); err == nil {
		t.Error("release of never-borrowed range accepted")
	}
}

func TestPoolExhaustionAcrossGrants(t *testing.T) {
	w := newWorld(t)
	p := params.Default()
	// Drain node 2's pool via two holders.
	half := p.PooledMemPerNode() / 2
	if _, err := w.agents[1].ReserveRemoteFrom(2, half); err != nil {
		t.Fatal(err)
	}
	if _, err := w.agents[3].ReserveRemoteFrom(2, half); err != nil {
		t.Fatal(err)
	}
	if _, err := w.agents[4].ReserveRemoteFrom(2, params.PageSize); err == nil {
		t.Error("grant from drained pool accepted")
	}
	if w.dir.Free(2) != 0 {
		t.Errorf("directory shows %d free on drained node", w.dir.Free(2))
	}
}

func TestAggregateBeyondOneNode(t *testing.T) {
	// The headline capability: one node aggregates more memory than any
	// single machine in the cluster holds (here 30 GB borrowed + 8 GB
	// private > 16 GB installed).
	w := newWorld(t)
	var total uint64
	for donor := addr.NodeID(2); donor <= 6; donor++ {
		r, err := w.agents[1].ReserveRemoteFrom(donor, 6<<30)
		if err != nil {
			t.Fatal(err)
		}
		total += r.Size
	}
	if total != 30<<30 {
		t.Fatalf("aggregated %d bytes", total)
	}
	if got := w.agents[1].EffectiveMemory(); got <= params.Default().MemPerNode {
		t.Errorf("EffectiveMemory = %d, not beyond one node", got)
	}
	borrowed := w.agents[1].Borrowed()
	if len(borrowed) != 5 {
		t.Fatalf("Borrowed ranges = %d", len(borrowed))
	}
	// Listed by donor, not in map order: callers print them.
	for i, r := range borrowed {
		if want := addr.NodeID(2 + i); r.Node() != want {
			t.Errorf("Borrowed()[%d] is on node %d, want %d", i, r.Node(), want)
		}
	}
}

func TestNoPeersErrors(t *testing.T) {
	d := memdir.New(nil)
	a, err := NewAgent(1, params.Default(), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReserveRemote(1<<20, memdir.MostFree); err == nil {
		t.Error("reserve without peers accepted")
	}
	if _, err := a.ReserveRemoteFrom(2, 1<<20); err == nil {
		t.Error("reserve-from without peers accepted")
	}
}
