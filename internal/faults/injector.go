package faults

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/splitmix"
)

// Status classifies what the fabric did with one frame.
type Status int

// Frame outcomes.
const (
	// Delivered: the frame arrived intact at Arrive.
	Delivered Status = iota
	// Corrupted: the frame arrived at Arrive with flipped bits; the
	// receiver's CRC check will reject it.
	Corrupted
	// Dropped: the frame vanished in transit and never arrives.
	Dropped
	// Unreachable: no route existed (every detour exhausted or the hop
	// budget ran out while links were down).
	Unreachable
)

func (s Status) String() string {
	switch s {
	case Delivered:
		return "delivered"
	case Corrupted:
		return "corrupted"
	case Dropped:
		return "dropped"
	case Unreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Outcome is the result of pushing one frame through a faulty fabric:
// when it arrived (meaningful for Delivered/Corrupted), how many link
// traversals it consumed, and what happened to it.
type Outcome struct {
	Arrive int64
	Hops   int
	Status Status
}

// Injector is a Plan bound to one single-threaded simulation. It owns
// the seeded random stream; because fault rolls happen in deterministic
// event order, the whole fault sequence replays exactly under the same
// plan. Each simulation builds its own Injector, so parallel sweep
// points never share a stream (the merge-determinism contract holds
// under faults).
type Injector struct {
	plan *Plan
	rng  splitmix.Stream

	// Drops, Corruptions, and Delays count injected faults.
	Drops, Corruptions, Delays uint64
}

// NewInjector binds a validated, non-empty plan to a fresh stream.
func NewInjector(p *Plan) *Injector {
	return &Injector{plan: p, rng: splitmix.New(uint64(p.Seed))}
}

// uniform draws once from the stream, uniform in [0, 1).
func (in *Injector) uniform() float64 { return float64(in.rng.Next()>>11) / (1 << 53) }

// RollDrop draws once against the drop probability. Probability zero
// consumes no randomness, so enabling only scheduled faults perturbs
// nothing else.
func (in *Injector) RollDrop() bool {
	if in == nil || in.plan.Drop <= 0 {
		return false
	}
	if in.uniform() < in.plan.Drop {
		in.Drops++
		return true
	}
	return false
}

// RollCorrupt draws once against the corruption probability.
func (in *Injector) RollCorrupt() bool {
	if in == nil || in.plan.Corrupt <= 0 {
		return false
	}
	if in.uniform() < in.plan.Corrupt {
		in.Corruptions++
		return true
	}
	return false
}

// RollDelay draws once against the delay probability and returns the
// extra latency when it fires.
func (in *Injector) RollDelay() (int64, bool) {
	if in == nil || in.plan.Delay <= 0 {
		return 0, false
	}
	if in.uniform() < in.plan.Delay {
		in.Delays++
		return in.plan.DelayBy, true
	}
	return 0, false
}

// LinkDown reports whether the link between two adjacent nodes is down
// at time t. Outages are bidirectional: a LinkWindow matches the link in
// either direction, like a pulled cable.
func (in *Injector) LinkDown(a, b addr.NodeID, t int64) bool {
	if in == nil {
		return false
	}
	for _, lw := range in.plan.LinkDowns {
		if (lw.From == a && lw.To == b) || (lw.From == b && lw.To == a) {
			if lw.Contains(t) {
				return true
			}
		}
	}
	return false
}

// NackStorm reports whether the node's client RMC is inside a scheduled
// NACK storm at time t.
func (in *Injector) NackStorm(n addr.NodeID, t int64) bool {
	if in == nil {
		return false
	}
	for _, nw := range in.plan.NackStorms {
		if nw.Node == n && nw.Contains(t) {
			return true
		}
	}
	return false
}

// MangleCRC flips one random bit of a frame checksum — the wire-level
// corruption a receiver's CRC check is there to catch.
func (in *Injector) MangleCRC(crc uint32) uint32 {
	return crc ^ 1<<(in.rng.Next()%32)
}

// Register exposes the injection tallies. Only faulted systems call
// this, so fault-free snapshots carry no fault families at all.
func (in *Injector) Register(m *metrics.Registry) {
	m.Counters(metrics.FamFaultDrops, "frames dropped by the fault plan", nil,
		func(e *metrics.Emitter) { e.Value(float64(in.Drops)) })
	m.Counters(metrics.FamFaultCorruptions, "frames corrupted by the fault plan", nil,
		func(e *metrics.Emitter) { e.Value(float64(in.Corruptions)) })
	m.Counters(metrics.FamFaultDelays, "frames delayed by the fault plan", nil,
		func(e *metrics.Emitter) { e.Value(float64(in.Delays)) })
}
