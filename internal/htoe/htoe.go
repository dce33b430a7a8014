// Package htoe models HyperTransport-over-Ethernet, the interconnect
// option the paper notes the HyperTransport Consortium was standardizing
// ("HyperTransport over Ethernet and HyperTransport over Infiniband,
// that will allow the use of standard Ethernet and Infiniband
// switches"). Instead of the prototype's direct 2D mesh, every node's
// RMC hangs off one NIC link to a central store-and-forward Ethernet
// switch: two hops for any pair, commodity hardware, but encapsulation
// and switching costs on every frame — the trade the consortium's
// standard buys.
//
// The model: an HNC frame is wrapped in one or more Ethernet frames
// (MTU-segmented for page-sized transfers), serialized onto the source
// NIC's uplink, forwarded by the switch (a shared FIFO — the fabric's
// central contention point), and serialized down the destination NIC's
// downlink.
package htoe

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/faults"
	"repro/internal/params"
	"repro/internal/sim"
)

// Ethernet constants.
const (
	// FrameOverhead is the per-Ethernet-frame header/trailer bytes
	// (MACs, type, FCS, preamble, IFG).
	FrameOverhead = 38
	// MTU is the payload capacity of one Ethernet frame.
	MTU = 1500
)

// Config carries the HToE timing parameters. Defaults model 2010-era
// 10 GbE cut-through-capable gear used store-and-forward.
type Config struct {
	// NICLatency is the per-end encapsulation/decapsulation cost.
	NICLatency params.Duration
	// WireLatency is the one-way link propagation + PHY latency.
	WireLatency params.Duration
	// SwitchLatency is the switch's store-and-forward latency per frame.
	SwitchLatency params.Duration
	// LinkOccupancy is the serialization time of 64 bytes on a link
	// (10 GbE: 64 B ≈ 51 ns).
	LinkOccupancy params.Duration
	// SwitchOccupancy is the switching capacity consumed per frame.
	SwitchOccupancy params.Duration
}

// DefaultConfig returns the calibrated 10 GbE figures.
func DefaultConfig() Config {
	return Config{
		NICLatency:      500 * params.Nanosecond,
		WireLatency:     200 * params.Nanosecond,
		SwitchLatency:   500 * params.Nanosecond,
		LinkOccupancy:   51 * params.Nanosecond,
		SwitchOccupancy: 60 * params.Nanosecond,
	}
}

// Validate reports the first inconsistency.
func (c Config) Validate() error {
	if c.NICLatency <= 0 || c.WireLatency <= 0 || c.SwitchLatency <= 0 ||
		c.LinkOccupancy <= 0 || c.SwitchOccupancy <= 0 {
		return fmt.Errorf("htoe: all latencies must be positive")
	}
	return nil
}

// Fabric is the switched-Ethernet fabric.
type Fabric struct {
	cfg   Config
	nodes int
	inj   *faults.Injector // nil on a fault-free fabric

	up, down map[addr.NodeID]*sim.Resource
	sw       *sim.Resource

	// Delivered counts HNC frames delivered; Frames counts Ethernet
	// frames used (> Delivered when segmentation kicks in).
	Delivered, Frames uint64
}

// InjectFaults arms the fault plan's probabilistic subset on this
// fabric. A switched fabric has a single path per pair, so link-down
// windows cannot reroute here — drops, corruption, and delay apply per
// HNC frame crossing the switch.
func (f *Fabric) InjectFaults(inj *faults.Injector) { f.inj = inj }

// New builds the fabric for a cluster of the given node count.
func New(nodes int, cfg Config) (*Fabric, error) {
	if nodes < 1 || nodes > addr.MaxNode {
		return nil, fmt.Errorf("htoe: %d nodes", nodes)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{
		cfg:   cfg,
		nodes: nodes,
		up:    make(map[addr.NodeID]*sim.Resource, nodes),
		down:  make(map[addr.NodeID]*sim.Resource, nodes),
		sw:    sim.NewResource(0),
	}
	for i := 1; i <= nodes; i++ {
		id := addr.NodeID(i)
		f.up[id] = sim.NewResource(0)
		f.down[id] = sim.NewResource(0)
	}
	return f, nil
}

// frames returns the Ethernet frame count and total wire bytes for an
// HNC payload of the given size.
func frames(payload int) (count, wireBytes int) {
	if payload <= 0 {
		return 1, FrameOverhead
	}
	count = (payload + MTU - 1) / MTU
	return count, payload + count*FrameOverhead
}

// serialize returns the link occupancy of wireBytes.
func (f *Fabric) serialize(wireBytes int) sim.Time {
	units := (wireBytes + params.CacheLineSize - 1) / params.CacheLineSize
	if units < 1 {
		units = 1
	}
	return sim.Time(units) * f.cfg.LinkOccupancy
}

// Deliver carries a frame fault-free: NIC encap → uplink → switch →
// downlink → NIC decap. Every pair is exactly two link hops apart — the
// constant-distance property that makes switched fabrics attractive,
// bought at higher per-frame cost and a shared switch.
func (f *Fabric) Deliver(now sim.Time, src, dst addr.NodeID, wireBytes int) (sim.Time, int) {
	if !f.contains(src) || !f.contains(dst) {
		panic(fmt.Sprintf("htoe: delivery %d->%d outside the %d-node fabric", src, dst, f.nodes))
	}
	if src == dst {
		return now, 0
	}
	nFrames, totalWire := frames(wireBytes)
	f.Frames += uint64(nFrames)
	occ := f.serialize(totalWire)

	t := now + f.cfg.NICLatency
	upDone, _ := f.up[src].Acquire(t, occ)
	t = upDone + f.cfg.WireLatency
	swDone, _ := f.sw.Acquire(t, sim.Time(nFrames)*f.cfg.SwitchOccupancy)
	t = swDone + f.cfg.SwitchLatency
	downDone, _ := f.down[dst].Acquire(t, occ)
	t = downDone + f.cfg.WireLatency + f.cfg.NICLatency
	f.Delivered++
	return t, 2
}

// DeliverOutcome implements rmc.Fabric: Deliver under the fault plan.
// The frame consumes the same NIC/switch/link capacity, then rolls the
// plan's delay, drop, and corruption probabilities once for its switch
// crossing. Without an injector it is exactly Deliver.
func (f *Fabric) DeliverOutcome(now sim.Time, src, dst addr.NodeID, wireBytes int) faults.Outcome {
	t, hops := f.Deliver(now, src, dst, wireBytes)
	if f.inj == nil || src == dst {
		return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Delivered}
	}
	if d, ok := f.inj.RollDelay(); ok {
		t += sim.Time(d)
	}
	if f.inj.RollDrop() {
		return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Dropped}
	}
	st := faults.Delivered
	if f.inj.RollCorrupt() {
		st = faults.Corrupted
	}
	return faults.Outcome{Arrive: int64(t), Hops: hops, Status: st}
}

// DeliverExpress implements rmc.Fabric: a switched fabric has no spare
// point-to-point ports, so express links do not exist here.
func (f *Fabric) DeliverExpress(sim.Time, addr.NodeID, addr.NodeID, int) (sim.Time, error) {
	return 0, fmt.Errorf("htoe: switched fabrics have no express links")
}

func (f *Fabric) contains(n addr.NodeID) bool { return n >= 1 && int(n) <= f.nodes }
