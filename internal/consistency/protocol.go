// Package consistency is the consistency-model laboratory: pluggable
// coherence/consistency protocols over the same mesh and calibration the
// rest of the simulator uses, a history recorder for multi-node
// programs, and checkers that validate recorded histories against
// sequential consistency and per-location linearizability.
//
// The paper's core claim is that *dropping* inter-node coherency wins
// for memory-hungry applications. This package makes the other half of
// that trade testable in-repo: each protocol states the consistency
// model it promises, litmus tests (store buffering, message passing,
// IRIW, coherence order) record what programs actually observe, and the
// checker decides whether the observation was sequentially consistent —
// so the directory-MSI comparator is validated as a real SC machine and
// the cheap modes are shown to be exactly as weak as advertised, rather
// than both being asserted through cost curves alone.
//
// Four protocols implement the interface:
//
//   - "msi": the directory-based MSI coherent DSM (internal/cohdsm),
//     promising sequential consistency — every access is globally
//     visible before it completes.
//   - "mesi": the MESI variant of the same machine — an exclusive-clean
//     E state with silent E→M upgrade and writeback-free clean drops.
//     Same promised model as msi (E changes cost, never visibility),
//     different latency curve.
//   - "rmc": the paper's non-coherent remote-memory mode with posted
//     writes — a per-node FIFO store buffer over single-copy home
//     memory, which is exactly total store order (store-buffering
//     reordering is observable; message passing and IRIW are not).
//   - "rc": release consistency — an unordered write buffer that
//     publishes only at Release, and a node-local read cache that sees
//     fresh values only after Acquire.
//
// Determinism contract (DESIGN.md §7/§13): a protocol is a pure state
// machine — same program, same schedule, same history, same verdict, at
// any -parallel worker count and across reruns.
package consistency

import (
	"fmt"

	"repro/internal/cohdsm"
	"repro/internal/params"
)

// Op is one history event kind.
type Op uint8

// Event kinds. Reads and writes carry a location and value; acquire and
// release are per-node fences (release publishes the node's buffered
// writes, acquire discards its stale local view).
const (
	OpRead Op = iota
	OpWrite
	OpAcquire
	OpRelease
)

// String returns the litmus-notation name of the op.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	case OpAcquire:
		return "acq"
	case OpRelease:
		return "rel"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Event is one recorded protocol operation.
type Event struct {
	// Seq is the global issue index: the driver executes exactly one
	// operation per step, so Seq is also the real-time order the
	// per-location linearizability check runs in.
	Seq int
	// Node is the issuing node (0-based).
	Node int
	// Op is the operation kind.
	Op Op
	// Loc is the line/word identifier (reads and writes).
	Loc uint64
	// Value is the value written, or the value the read returned.
	Value uint64
	// Cost is the simulated latency the protocol charged for the op.
	Cost params.Duration
}

// String renders an event in litmus notation, e.g. "n0: W x3 = 1".
func (e Event) String() string {
	switch e.Op {
	case OpRead, OpWrite:
		return fmt.Sprintf("n%d: %s x%d = %d", e.Node, e.Op, e.Loc, e.Value)
	default:
		return fmt.Sprintf("n%d: %s", e.Node, e.Op)
	}
}

// History is the recorded trace of one program execution: every event in
// global issue order.
type History struct {
	Nodes  int
	Events []Event
}

// TotalCost sums the simulated latency of every recorded op.
func (h History) TotalCost() params.Duration {
	var total params.Duration
	for _, e := range h.Events {
		total += e.Cost
	}
	return total
}

// Ops counts the reads and writes in the history (fences excluded).
func (h History) Ops() int {
	n := 0
	for _, e := range h.Events {
		if e.Op == OpRead || e.Op == OpWrite {
			n++
		}
	}
	return n
}

// perNode splits the history into per-node program-order event lists,
// keeping only reads and writes (fences constrain implementations, not
// the SC definition over reads/writes).
func (h History) perNode() [][]Event {
	out := make([][]Event, h.Nodes)
	for _, e := range h.Events {
		if e.Op == OpRead || e.Op == OpWrite {
			out[e.Node] = append(out[e.Node], e)
		}
	}
	return out
}

// Protocol is one pluggable consistency protocol: a deterministic state
// machine over n nodes and line-granular locations, returning for every
// operation the value observed (reads) and the simulated latency the
// protocol charges. Implementations are not internally synchronized —
// like every simulated substrate they are owned by one goroutine.
type Protocol interface {
	// Name is the short registry identifier ("msi", "rmc", "rc").
	Name() string
	// Model names the consistency model the protocol promises.
	Model() string
	// Nodes returns the domain's node count.
	Nodes() int
	// Read performs one load.
	Read(node int, loc uint64) (uint64, params.Duration, error)
	// Write performs one store.
	Write(node int, loc uint64, val uint64) (params.Duration, error)
	// Acquire is the read fence: after it, the node's reads observe
	// everything published before the matching release.
	Acquire(node int) (params.Duration, error)
	// Release is the write fence: it publishes the node's buffered
	// writes to every other node.
	Release(node int) (params.Duration, error)
	// SelfCheck verifies the protocol's internal invariants (the MSI
	// directory invariants; buffer bounds elsewhere).
	SelfCheck() error
}

// Names lists the registered protocol names in presentation order.
func Names() []string { return []string{"msi", "mesi", "rmc", "rc"} }

// NewProtocol builds a protocol by registry name over nodes nodes of the
// mesh described by p.
func NewProtocol(name string, p params.Params, nodes int) (Protocol, error) {
	switch name {
	case "msi":
		return NewMSI(p, nodes)
	case "mesi":
		return NewMESI(p, nodes)
	case "rmc":
		return NewNonCoherent(p, nodes)
	case "rc":
		return NewReleaseConsistent(p, nodes)
	}
	return nil, fmt.Errorf("consistency: unknown protocol %q (have %v)", name, Names())
}

// Directoried is implemented by the coherent protocols (msi, mesi) to
// expose their underlying cohdsm directory for instrumentation.
type Directoried interface {
	Directory() *cohdsm.Model
}
