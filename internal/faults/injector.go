package faults

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/metrics"
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

// prng is a self-contained splitmix64 stream. The simulator's
// determinism contract outlives Go releases, so the fault stream does
// not depend on math/rand's generator staying put.
type prng struct{ state uint64 }

func (r *prng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *prng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// Injector is a Plan bound to one single-threaded simulation. It owns
// the seeded random stream; because fault rolls happen in deterministic
// event order, the whole fault sequence replays exactly under the same
// plan. Each simulation builds its own Injector, so parallel sweep
// points never share a stream (the merge-determinism contract holds
// under faults).
type Injector struct {
	plan *Plan
	rng  prng

	// Drops, Corruptions, and Delays count injected faults.
	Drops, Corruptions, Delays uint64
}

// NewInjector binds a validated, non-empty plan to a fresh stream.
func NewInjector(p *Plan) *Injector {
	return &Injector{plan: p, rng: prng{state: uint64(p.Seed)}}
}

// RollDrop draws once against the drop probability. Probability zero
// consumes no randomness, so enabling only scheduled faults perturbs
// nothing else.
func (in *Injector) RollDrop() bool {
	if in == nil || in.plan.Drop <= 0 {
		return false
	}
	if in.rng.float64() < in.plan.Drop {
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
	if in.rng.float64() < in.plan.Corrupt {
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
	if in.rng.float64() < in.plan.Delay {
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
	return crc ^ 1<<uint(in.rng.intn(32))
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
