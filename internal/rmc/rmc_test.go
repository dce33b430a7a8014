package rmc

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/ht"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/params"
	"repro/internal/sim"
)

// rig builds a bare N-node RMC network (no caches, no OS) on a 4x4 mesh
// driven by a one-shard set: every send goes through the shard's
// exchange, and set.Run drains it at each barrier, as in the cluster.
type rig struct {
	set    *sim.ShardSet
	eng    *sim.Engine
	exch   *ExchangeSet
	p      params.Params
	fabric *mesh.Fabric
	rmcs   map[addr.NodeID]*RMC
	stores map[addr.NodeID]*mem.Store
}

func (r *rig) RMC(n addr.NodeID) (*RMC, error) {
	m, ok := r.rmcs[n]
	if !ok {
		return nil, fmt.Errorf("no rmc %d", n)
	}
	return m, nil
}

func newRig(t *testing.T, nodes int) *rig { return buildRig(t, nodes, nil) }

// buildRig wires the network; inj, when non-nil, is shared by the
// fabric and every RMC, exactly as the cluster wires a fault plan.
func buildRig(t *testing.T, nodes int, inj *faults.Injector) *rig {
	t.Helper()
	p := params.Default()
	set := sim.NewShardSet(1, p.HopLatency)
	eng := set.Engine(0)
	topo, err := mesh.NewTopology(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fabric := mesh.NewFabric(eng.Metrics(), topo, p, inj)
	r := &rig{
		set:    set,
		eng:    eng,
		exch:   NewExchangeSet(set, fabric),
		p:      p,
		fabric: fabric,
		rmcs:   map[addr.NodeID]*RMC{},
		stores: map[addr.NodeID]*mem.Store{},
	}
	for i := 1; i <= nodes; i++ {
		id := addr.NodeID(i)
		st, err := mem.NewStore(p.MemPerNode)
		if err != nil {
			t.Fatal(err)
		}
		r.stores[id] = st
		m, err := New(r.config(id, st, inj))
		if err != nil {
			t.Fatal(err)
		}
		r.rmcs[id] = m
	}
	return r
}

// config is the complete RMC configuration of node id in the rig.
func (r *rig) config(id addr.NodeID, st *mem.Store, inj *faults.Injector) Config {
	return Config{
		Self: id, Params: r.p, Peers: r,
		Bank: dram.NewBank(r.p), Store: st, Faults: inj, Exch: r.exch.Shard(0),
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	r := newRig(t, 2)
	if _, err := New(r.config(0, r.stores[1], nil)); err == nil {
		t.Error("node 0 accepted")
	}
	// Every RMC sends through its shard's exchange; there is no
	// exchange-less send path to fall back to.
	noExch := r.config(3, r.stores[1], nil)
	noExch.Exch = nil
	if _, err := New(noExch); err == nil {
		t.Error("config without an exchange accepted")
	}
}

// wantLine checks a scalar round trip's response: the scalar path moves
// no bytes, so a line read answers with a payload-less RdResponse of the
// line's count and a write with a TgtDone. The bytes themselves cross
// nodes on the bulk plane (TestBulkReadGather, TestBulkWriteScatter).
func wantLine(t *testing.T, rsp ht.Packet, cmd ht.Command, count int) {
	t.Helper()
	if rsp.Cmd != cmd || rsp.Count != count || rsp.Data != nil {
		t.Errorf("response %v carrying %d bytes, want a payload-less %v of count %d", rsp, len(rsp.Data), cmd, count)
	}
}

func TestRemoteReadRoundTrip(t *testing.T) {
	r := newRig(t, 4)
	var got ht.Packet
	var doneAt sim.Time
	req := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x41000000).WithNode(2), Count: 64}
	if err := r.rmcs[1].Request(0, req, false, func(ts sim.Time, rsp ht.Packet, _ error) {
		doneAt, got = ts, rsp
	}); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	wantLine(t, got, ht.CmdRdResponse, 64)
	// Unloaded latency: client occ + 1-hop request + server occ + DRAM +
	// 1-hop response. Within the analytic round-trip ± link occupancies.
	lo := r.p.RemoteRoundTrip(1)
	hi := lo + 10*r.p.LinkOccupancy + r.p.DRAMOccupancy
	if doneAt < lo || doneAt > hi {
		t.Errorf("round trip = %d ps, want within [%d, %d]", doneAt, lo, hi)
	}
	if r.rmcs[1].Forwarded != 1 || r.rmcs[2].ServedHere != 1 {
		t.Error("forward/serve counters wrong")
	}
}

func TestRemoteWriteRoundTrip(t *testing.T) {
	r := newRig(t, 4)
	req := ht.Packet{Cmd: ht.CmdWrSized, Addr: addr.Phys(0x100).WithNode(3), Count: 64}
	var got ht.Packet
	if err := r.rmcs[1].Request(0, req, false, func(_ sim.Time, rsp ht.Packet, _ error) { got = rsp }); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	wantLine(t, got, ht.CmdTgtDone, 0)
	if r.rmcs[1].Forwarded != 1 || r.rmcs[3].ServedHere != 1 {
		t.Error("forward/serve counters wrong")
	}
}

func TestCrossNodeVisibility(t *testing.T) {
	// Node 1 writes a line of node 3's memory and node 2 reads the same
	// prefixed address: both requests reach the one memory that owns it.
	r := newRig(t, 4)
	wr := ht.Packet{Cmd: ht.CmdWrSized, Addr: addr.Phys(0x2000).WithNode(3), Count: 64}
	var wrote, read ht.Packet
	if err := r.rmcs[1].Request(0, wr, false, func(_ sim.Time, rsp ht.Packet, _ error) { wrote = rsp }); err != nil {
		t.Fatal(err)
	}
	r.set.Run()

	rd := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x2000).WithNode(3), Count: 64}
	if err := r.rmcs[2].Request(r.eng.Now(), rd, false, func(_ sim.Time, rsp ht.Packet, _ error) { read = rsp }); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	wantLine(t, wrote, ht.CmdTgtDone, 0)
	wantLine(t, read, ht.CmdRdResponse, 64)
	if r.rmcs[3].ServedHere != 2 {
		t.Errorf("node 3 served %d requests, want both", r.rmcs[3].ServedHere)
	}
}

func TestHopDistanceIncreasesLatency(t *testing.T) {
	r := newRig(t, 16)
	measure := func(dst addr.NodeID) sim.Time {
		r2 := newRig(t, 16)
		var done sim.Time
		req := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(dst), Count: 64}
		if err := r2.rmcs[1].Request(0, req, false, func(ts sim.Time, _ ht.Packet, _ error) { done = ts }); err != nil {
			t.Fatal(err)
		}
		r2.set.Run()
		return done
	}
	_ = r
	l1 := measure(2)  // 1 hop from node 1 on the 4x4 mesh
	l3 := measure(4)  // 3 hops
	l6 := measure(16) // 6 hops
	if !(l1 < l3 && l3 < l6) {
		t.Errorf("latency not monotone in distance: %d, %d, %d", l1, l3, l6)
	}
	// Each extra hop adds hop latency both ways (plus link occupancy).
	if d := l3 - l1; d < 4*r.p.HopLatency {
		t.Errorf("2 extra hops added only %d ps", d)
	}
}

func TestLoopbackMode(t *testing.T) {
	r := newRig(t, 4)
	var got ht.Packet
	req := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x500).WithNode(1), Count: 8}
	if err := r.rmcs[1].Request(0, req, false, func(_ sim.Time, rsp ht.Packet, _ error) { got = rsp }); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	wantLine(t, got, ht.CmdRdResponse, 8)
	if r.rmcs[1].LoopbackOps != 1 || r.rmcs[1].ServedHere != 1 {
		t.Errorf("LoopbackOps = %d, ServedHere = %d; want 1 each", r.rmcs[1].LoopbackOps, r.rmcs[1].ServedHere)
	}
	if r.fabric.Delivered != 0 {
		t.Error("loopback op touched the fabric")
	}
}

func TestRequestValidation(t *testing.T) {
	r := newRig(t, 2)
	noop := func(sim.Time, ht.Packet, error) {}
	if err := r.rmcs[1].Request(0, ht.Packet{Cmd: ht.CmdRdResponse}, false, noop); err == nil {
		t.Error("response accepted as request")
	}
	if err := r.rmcs[1].Request(0, ht.Packet{Cmd: ht.CmdRdSized, Addr: 0x100, Count: 64}, false, noop); err == nil {
		t.Error("local address accepted")
	}
	if err := r.rmcs[1].Request(0, ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(9), Count: 64}, false, noop); err == nil {
		t.Error("request to nonexistent node accepted")
	}
	if err := r.rmcs[1].Request(0, ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(2), Count: 0}, false, noop); err == nil {
		t.Error("invalid packet accepted")
	}
	// The scalar path moves no bytes: a packet carrying Data is refused
	// before it counts a request or takes a frame sequence number.
	for _, cmd := range []ht.Command{ht.CmdWrSized, ht.CmdRdSized} {
		pkt := ht.Packet{Cmd: cmd, Addr: addr.Phys(0x100).WithNode(2), Count: 64, Data: make([]byte, 64)}
		if err := r.rmcs[1].Request(0, pkt, false, noop); err == nil {
			t.Errorf("%v carrying data accepted", cmd)
		}
	}
	if got := r.rmcs[1].Requests; got != 0 {
		t.Errorf("refused packets counted %d requests", got)
	}
	if err := r.rmcs[1].Request(0, ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(2), Count: 64}, false, noop); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	if v := r.rmcs[2].verif; v.Received != 1 || v.Gaps != 0 {
		t.Errorf("server received %d frames with %d sequence gaps, want the first frame in order", v.Received, v.Gaps)
	}
}

func TestClientQueueRetries(t *testing.T) {
	r := newRig(t, 4)
	// Flood the client RMC far beyond its admission queue at t=0.
	completions := 0
	for i := 0; i < 16; i++ {
		req := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(uint64(i) * 64).WithNode(2), Count: 64}
		if err := r.rmcs[1].Request(0, req, false, func(sim.Time, ht.Packet, error) { completions++ }); err != nil {
			t.Fatal(err)
		}
	}
	r.set.Run()
	if completions != 16 {
		t.Fatalf("only %d of 16 completed", completions)
	}
	if r.rmcs[1].Retries == 0 {
		t.Error("flood produced no NACK retries; queue bound not enforced")
	}
}

func TestRetryWasteSlowsService(t *testing.T) {
	// The same 16-request flood takes longer than 16 clean admissions
	// would: NACK processing consumes client-RMC capacity. This is the
	// mechanism behind Fig 7's inversion.
	flood := func(stagger sim.Time) sim.Time {
		r := newRig(t, 4)
		var last sim.Time
		for i := 0; i < 16; i++ {
			req := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(uint64(i) * 64).WithNode(2), Count: 64}
			at := sim.Time(i) * stagger
			r.eng.At(at, func() {
				if err := r.rmcs[1].Request(r.eng.Now(), req, false, func(ts sim.Time, _ ht.Packet, _ error) {
					if ts > last {
						last = ts
					}
				}); err != nil {
					panic(err)
				}
			})
		}
		r.set.Run()
		return last
	}
	p := params.Default()
	burst := flood(0)                    // all at once: retries
	paced := flood(p.RMCClientOccupancy) // arrival = service rate: no retries
	if burst <= paced {
		t.Errorf("burst finished at %d, paced at %d; retry waste should slow the burst", burst, paced)
	}
}

func TestExpressRouting(t *testing.T) {
	r := newRig(t, 16)
	if err := r.fabric.AddExpressLink(1, 16); err != nil {
		t.Fatal(err)
	}
	var meshDone, expressDone sim.Time
	req := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(16), Count: 64}
	if err := r.rmcs[1].Request(0, req, false, func(ts sim.Time, _ ht.Packet, _ error) { meshDone = ts }); err != nil {
		t.Fatal(err)
	}
	r.set.Run()

	r2 := newRig(t, 16)
	if err := r2.fabric.AddExpressLink(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := r2.rmcs[1].Request(0, req, true, func(ts sim.Time, _ ht.Packet, _ error) { expressDone = ts }); err != nil {
		t.Fatal(err)
	}
	r2.set.Run()
	if expressDone >= meshDone {
		t.Errorf("express (%d) not faster than 6-hop mesh (%d)", expressDone, meshDone)
	}
}

func TestUtilizationReporting(t *testing.T) {
	r := newRig(t, 4)
	req := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(2), Count: 64}
	if err := r.rmcs[1].Request(0, req, false, func(sim.Time, ht.Packet, error) {}); err != nil {
		t.Fatal(err)
	}
	end := r.set.Run()
	if u := r.rmcs[1].ClientUtilization(end); u <= 0 || u > 1 {
		t.Errorf("client utilization = %v", u)
	}
	if u := r.rmcs[2].ServerUtilization(end); u <= 0 || u > 1 {
		t.Errorf("server utilization = %v", u)
	}
}

// allowRanges is a Protection allowing one requester a fixed range.
type allowRanges struct {
	who addr.NodeID
	rng addr.Range
}

func (a allowRanges) Allowed(req addr.NodeID, local addr.Range) bool {
	return req == a.who && local.Start >= a.rng.Start && local.End() <= a.rng.End()
}

func TestProtectionAborts(t *testing.T) {
	r := newRig(t, 4)
	granted := addr.Range{Start: 0x40000000, Size: 1 << 20}
	r.rmcs[2].SetProtection(allowRanges{who: 1, rng: granted})

	ask := func(from addr.NodeID, a addr.Phys) ht.Command {
		var cmd ht.Command
		req := ht.Packet{Cmd: ht.CmdRdSized, Addr: a.WithNode(2), Count: 64}
		if err := r.rmcs[from].Request(r.eng.Now(), req, false, func(_ sim.Time, rsp ht.Packet, _ error) {
			cmd = rsp.Cmd
		}); err != nil {
			t.Fatal(err)
		}
		r.set.Run()
		return cmd
	}

	// The grantee reads inside its grant: data.
	if got := ask(1, 0x40000000); got != ht.CmdRdResponse {
		t.Errorf("grantee read = %v", got)
	}
	// The grantee strays outside the grant: abort.
	if got := ask(1, 0x200); got != ht.CmdTgtAbort {
		t.Errorf("out-of-grant read = %v, want TgtAbort", got)
	}
	// A stranger reads inside the grant: abort.
	if got := ask(3, 0x40000000); got != ht.CmdTgtAbort {
		t.Errorf("stranger read = %v, want TgtAbort", got)
	}
	if r.rmcs[2].Aborted != 2 {
		t.Errorf("Aborted = %d, want 2", r.rmcs[2].Aborted)
	}
	// Clearing protection restores the prototype's open behavior.
	r.rmcs[2].SetProtection(nil)
	if got := ask(3, 0x200); got != ht.CmdRdResponse {
		t.Errorf("unprotected read = %v", got)
	}
}
