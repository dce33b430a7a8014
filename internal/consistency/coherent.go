package consistency

import (
	"repro/internal/cohdsm"
	"repro/internal/params"
)

// Coherent is a hardware-coherent comparator: one of the internal/cohdsm
// directory machines behind the Protocol interface. Every access
// completes only after the directory has made it globally visible
// (sharers invalidated, dirty owners intervened on and written back), so
// the protocol is sequentially consistent — in fact linearizable, since
// each access takes effect atomically at its issue step. Fences are
// no-ops the hardware already pays for on every access.
//
// Two constructors build it. NewMSI is the directory-based MSI machine.
// NewMESI adds an exclusive-clean E state; it promises the same model,
// because E changes only *cost*, never visibility: a silent E→M upgrade
// is still an atomic local transition on the only copy in the system,
// and every other access completes through the directory exactly as
// under MSI. The lab's point in carrying both is the strength/cost
// split: identical verdict columns, different latency curves (private
// read-then-write cheaper, read-shared data dearer).
type Coherent struct {
	name string
	m    *cohdsm.Model
}

// NewMSI builds the MSI coherent protocol over nodes nodes.
func NewMSI(p params.Params, nodes int) (*Coherent, error) {
	m, err := cohdsm.New(p, nodes)
	if err != nil {
		return nil, err
	}
	return &Coherent{name: "msi", m: m}, nil
}

// NewMESI builds the MESI coherent protocol over nodes nodes.
func NewMESI(p params.Params, nodes int) (*Coherent, error) {
	m, err := cohdsm.NewMESI(p, nodes)
	if err != nil {
		return nil, err
	}
	return &Coherent{name: "mesi", m: m}, nil
}

// Name returns "msi" or "mesi".
func (c *Coherent) Name() string { return c.name }

// Model names the promised consistency model.
func (c *Coherent) Model() string { return "sequential consistency" }

// Nodes returns the domain size.
func (c *Coherent) Nodes() int { return c.m.Nodes() }

// Directory exposes the underlying cohdsm model (metrics, diagnostics).
func (c *Coherent) Directory() *cohdsm.Model { return c.m }

// Read performs one coherent load.
func (c *Coherent) Read(node int, loc uint64) (uint64, params.Duration, error) {
	return c.m.ReadLine(node, loc)
}

// Write performs one coherent store.
func (c *Coherent) Write(node int, loc uint64, val uint64) (params.Duration, error) {
	return c.m.WriteLine(node, loc, val)
}

// Acquire is free under hardware coherence.
func (c *Coherent) Acquire(node int) (params.Duration, error) { return 0, nil }

// Release is free under hardware coherence.
func (c *Coherent) Release(node int) (params.Duration, error) { return 0, nil }

// SelfCheck runs the directory invariants.
func (c *Coherent) SelfCheck() error { return c.m.CheckInvariants() }
