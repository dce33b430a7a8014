// Package cohdsm models the alternative the paper argues against: a
// hardware coherent distributed shared memory spanning the cluster (the
// 3Leaf Aqua / ScaleMP / Numascale class of system), as a directory-based
// MSI protocol over the same mesh parameters. Every line has a home
// directory; writes invalidate remote sharers and reads intervene on
// remote owners, so the cost of keeping caches coherent grows with the
// number of nodes touching the data — the overhead the RMC architecture
// removes by never letting a coherency domain span nodes.
//
// The model carries data as well as cost: every line has a 64-bit value,
// per-node cached copies hold the value their protocol state entitles
// them to, and home memory is refreshed by writebacks exactly when the
// protocol says it is (M→S downgrade on a remote read, invalidation of a
// dirty owner on a remote write). That makes the comparator falsifiable:
// internal/consistency drives litmus and random programs through
// ReadLine/WriteLine and checks the recorded histories against
// sequential consistency, so a protocol bug shows up as a stale value,
// not just a miscounted cost.
//
// Two variants share the machine: New builds the plain directory MSI
// protocol, and NewMESI adds the exclusive-clean E state — cold read
// misses take the line exclusive, the E-holder's first write upgrades to
// M silently (no directory traffic), and clean E copies are dropped on
// invalidation or downgrade without a writeback. The comparison prices
// MESI's classic bet: private read-then-write gets cheaper, while a
// second reader of an E line pays an intervention MSI never issues.
package cohdsm

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/params"
)

// lineState is the directory's view of one line. stateExclusive exists
// only in the MESI variant: the directory granted the line exclusively
// to one clean reader, which may since have upgraded its copy to M
// silently — so the directory must intervene on the owner to learn
// whether a writeback is needed, exactly as for stateModified.
type lineState uint8

const (
	stateInvalid lineState = iota
	stateShared
	stateModified
	stateExclusive
)

// cacheState is a node's right to its cached copy. cacheExclusive is
// MESI's E: a clean read-only copy no other node holds, upgradable to M
// by a local write without any directory traffic.
type cacheState uint8

const (
	cacheShared cacheState = iota
	cacheExclusive
	cacheModified
)

// noOwner marks a directory entry with no modified owner. The owner
// field is only meaningful in stateModified and must be cleared on every
// downgrade or invalidation — a stale owner is exactly the kind of
// latent directory bug CheckInvariants exists to catch.
const noOwner = -1

type dirEntry struct {
	state   lineState
	owner   int          // valid only when stateModified; noOwner otherwise
	sharers map[int]bool // valid when stateShared
}

// cached is one node's copy of a line: its access right and the value it
// read or wrote under that right.
type cached struct {
	state cacheState
	val   uint64
}

func (c cached) writable() bool { return c.state == cacheModified }

// Model is the coherent-DSM machine: n nodes, a directory distributed
// across them by line address, and per-node caches abstracted to
// presence sets carrying line values (the protocol cost and the protocol
// *correctness*, not the capacity, are the objects of study here).
type Model struct {
	p     params.Params
	topo  mesh.Topology
	nodes int
	dir   map[uint64]*dirEntry

	// mem is home memory: the value a line has at its home node. It is
	// stale while a dirty owner exists and is refreshed by writebacks.
	mem map[uint64]uint64

	// held[n] is the set of lines node n currently caches, with its
	// right (M writable, E exclusive-clean, S shared) and cached value.
	held []map[uint64]cached

	// mesi enables the MESI variant: cold read misses are granted E,
	// E-holders upgrade to M silently, and clean E copies drop without a
	// writeback. The base model (New) never grants E, so it remains the
	// plain MSI machine byte for byte.
	mesi bool

	// bugs re-introduces historical protocol bugs (tests only).
	bugs TestBugs

	// Invalidations, Interventions, DirLookups, and Writebacks are
	// protocol event counts. ExclusiveGrants and SilentUpgrades count
	// the MESI-only transitions (always zero in the MSI variant).
	Invalidations, Interventions, DirLookups, Writebacks uint64
	ExclusiveGrants, SilentUpgrades                      uint64

	// fanout, when instrumented, observes the sharer count invalidated
	// by each write miss/upgrade. Nil (free) until Instrument is called,
	// so uninstrumented models produce no metric output at all.
	fanout *metrics.Histogram
}

// TestBugs re-introduces real protocol bugs the PR 6 checkers caught,
// behind a knob so the schedule explorer's regression tests can prove
// they would be rediscovered. Production constructors never set it.
type TestBugs struct {
	// SkipDowngradeWriteback drops the writeback when a read intervenes
	// on a dirty owner (the M→S downgrade), leaving home memory stale —
	// the reader then observes the old value.
	SkipDowngradeWriteback bool
	// KeepOwnerAfterDowngrade leaves the directory's owner field
	// pointing at the downgraded owner while the line is shared — the
	// latent-state bug CheckInvariants exists to catch.
	KeepOwnerAfterDowngrade bool
}

// InjectBugs arms the test-only bug knob on a fresh model.
func (m *Model) InjectBugs(b TestBugs) { m.bugs = b }

// New builds a coherent DSM over the given geometry.
func New(p params.Params, nodes int) (*Model, error) {
	topo, err := mesh.NewTopology(p.MeshWidth, p.MeshHeight)
	if err != nil {
		return nil, err
	}
	if nodes < 1 || nodes > topo.Nodes() {
		return nil, fmt.Errorf("cohdsm: %d nodes outside the %d-node mesh", nodes, topo.Nodes())
	}
	m := &Model{
		p:     p,
		topo:  topo,
		nodes: nodes,
		dir:   make(map[uint64]*dirEntry),
		mem:   make(map[uint64]uint64),
		held:  make([]map[uint64]cached, nodes),
	}
	for i := range m.held {
		m.held[i] = make(map[uint64]cached)
	}
	return m, nil
}

// NewMESI builds the MESI variant over the same geometry: cold read
// misses take the line exclusive-clean (E), an E-holder's write upgrades
// to M with no directory traffic, and a clean E copy is dropped on
// invalidation or downgrade without a writeback — home memory is already
// current. The trade against MSI is visible in the lab: writes after a
// private read get cheaper, but a second reader of an E line pays an
// intervention MSI never issues.
func NewMESI(p params.Params, nodes int) (*Model, error) {
	m, err := New(p, nodes)
	if err != nil {
		return nil, err
	}
	m.mesi = true
	return m, nil
}

// Instrument registers the model's directory-transaction metrics with a
// registry: lookup/invalidation/intervention/writeback counters and the
// per-write sharer fan-out histogram. Uninstrumented models register
// nothing and pay nothing, so output that never asked for the coherent
// comparator stays byte-identical.
func (m *Model) Instrument(reg *metrics.Registry) {
	counter := func(name, help string, v *uint64) {
		reg.Counters(name, help, nil, func(e *metrics.Emitter) { e.Value(float64(*v)) })
	}
	counter(metrics.FamDirLookups, "home-directory lookups", &m.DirLookups)
	counter(metrics.FamDirInvalidations, "sharer copies invalidated by writes", &m.Invalidations)
	counter(metrics.FamDirInterventions, "dirty-owner interventions on reads", &m.Interventions)
	counter(metrics.FamDirWritebacks, "dirty lines written back to home memory", &m.Writebacks)
	m.fanout = metrics.NewHistogram([]int64{0, 1, 2, 4, 8, 16, 32, 64})
	reg.Histograms(metrics.FamDirFanout, "sharers invalidated per write miss/upgrade", nil,
		func(e *metrics.Emitter) { e.Histogram(m.fanout) })
	if m.mesi {
		// MESI-only transitions: registered only for the MESI variant,
		// so instrumented MSI output stays byte-identical.
		counter(metrics.FamDirExclusiveGrants, "cold read misses granted exclusive-clean", &m.ExclusiveGrants)
		counter(metrics.FamDirSilentUpgrades, "E→M upgrades with no directory traffic", &m.SilentUpgrades)
	}
}

// Nodes returns the coherent domain's node count.
func (m *Model) Nodes() int { return m.nodes }

// home returns the directory home node index of a line.
func (m *Model) home(line uint64) int { return int(line) % m.nodes }

// nodeID maps a node index to its mesh identifier.
func (m *Model) nodeID(i int) addr.NodeID { return addr.NodeID(i + 1) }

// rt returns a round-trip latency between two nodes over the mesh.
func (m *Model) rt(a, b int) params.Duration {
	return 2 * params.Duration(m.topo.Hops(m.nodeID(a), m.nodeID(b))) * m.p.HopLatency
}

// entry fetches or creates the directory entry.
func (m *Model) entry(line uint64) *dirEntry {
	e, ok := m.dir[line]
	if !ok {
		e = &dirEntry{owner: noOwner, sharers: make(map[int]bool)}
		m.dir[line] = e
	}
	return e
}

// Access performs one read or write by a node to a line (line-granular
// addressing: callers pass byte addresses divided by the line size or
// any stable line identifier) and returns its latency under the
// protocol. A cost-only write rewrites the line's current contents; use
// WriteLine to store a new value.
func (m *Model) Access(node int, line uint64, write bool) (params.Duration, error) {
	if !write {
		_, lat, err := m.ReadLine(node, line)
		return lat, err
	}
	return m.writeLine(node, line, 0, true)
}

// ReadLine performs one read and returns the value the node observes
// under the protocol along with its latency.
func (m *Model) ReadLine(node int, line uint64) (uint64, params.Duration, error) {
	if err := m.checkNode(node); err != nil {
		return 0, 0, err
	}
	if c, present := m.held[node][line]; present {
		// Cache hit with sufficient rights: no protocol traffic, and the
		// node reads its own cached copy — if the protocol ever leaves a
		// stale copy behind, this is where the checker sees it.
		return c.val, m.p.L1Latency, nil
	}

	e := m.entry(line)
	m.DirLookups++
	h := m.home(line)
	// Request travels to the home directory.
	lat := m.p.L1Latency + m.rt(node, h) + m.p.CohDirectoryLatency

	if e.state == stateModified || e.state == stateExclusive {
		if e.owner == node {
			return 0, 0, fmt.Errorf("cohdsm: directory says node %d owns line %d but its cache does not hold it", node, line)
		}
		// Read miss on an owned line: intervene on the owner to learn
		// whether its copy is dirty (always under stateModified; under
		// stateExclusive only if it silently upgraded E→M), write a
		// dirty value back to home memory, downgrade the owner to S, and
		// clear the owner field — the directory has no owner once the
		// line is shared. A clean E copy downgrades with no writeback:
		// home memory is already current.
		m.Interventions++
		lat += m.rt(h, e.owner) + m.p.CohProtocolOverhead
		oc, ok := m.held[e.owner][line]
		if !ok {
			return 0, 0, fmt.Errorf("cohdsm: line %d owned by node %d which does not cache it", line, e.owner)
		}
		if oc.state == cacheModified && !m.bugs.SkipDowngradeWriteback {
			m.mem[line] = oc.val
			m.Writebacks++
		}
		m.held[e.owner][line] = cached{state: cacheShared, val: oc.val}
		e.sharers[e.owner] = true
		if !m.bugs.KeepOwnerAfterDowngrade {
			e.owner = noOwner
		}
	}
	lat += m.p.DRAMLatency // home memory (refreshed by any writeback) supplies data
	v := m.mem[line]
	if m.mesi && e.state == stateInvalid {
		// MESI: a cold read with no other holder takes the line
		// exclusive-clean — the bet that the reader writes next and can
		// then upgrade silently.
		m.ExclusiveGrants++
		e.state = stateExclusive
		e.owner = node
		m.held[node][line] = cached{state: cacheExclusive, val: v}
		return v, lat, nil
	}
	e.state = stateShared
	e.sharers[node] = true
	m.held[node][line] = cached{state: cacheShared, val: v}
	return v, lat, nil
}

// WriteLine performs one write of val and returns its latency.
func (m *Model) WriteLine(node int, line uint64, val uint64) (params.Duration, error) {
	return m.writeLine(node, line, val, false)
}

// writeLine is the write path. When costOnly is set the write preserves
// the line's current freshest value (an Access touch); otherwise it
// stores val.
func (m *Model) writeLine(node int, line uint64, val uint64, costOnly bool) (params.Duration, error) {
	if err := m.checkNode(node); err != nil {
		return 0, err
	}
	if c, present := m.held[node][line]; present && c.writable() {
		// Cache hit with write rights: no protocol traffic.
		if !costOnly {
			m.held[node][line] = cached{state: cacheModified, val: val}
		}
		return m.p.L1Latency, nil
	}
	if c, present := m.held[node][line]; present && c.state == cacheExclusive {
		// MESI's payoff: the exclusive-clean holder upgrades to M
		// silently — no directory traffic at all. The directory still
		// records stateExclusive with this owner, which is exactly what
		// that state means: one owner whose copy may be E or M.
		m.SilentUpgrades++
		if costOnly {
			val = c.val
		}
		m.held[node][line] = cached{state: cacheModified, val: val}
		return m.p.L1Latency, nil
	}

	e := m.entry(line)
	m.DirLookups++
	h := m.home(line)
	lat := m.p.L1Latency + m.rt(node, h) + m.p.CohDirectoryLatency

	// Write miss/upgrade: invalidate every other holder and take M. A
	// dirty holder's value is written back to home memory first, so the
	// line's freshest value survives even a cost-only rewrite; a clean E
	// copy is dropped with no writeback — home memory already matches.
	var worstRT params.Duration
	invalidated := 0
	invalidate := func(holder int) {
		if holder == node {
			return
		}
		if oc, ok := m.held[holder][line]; ok {
			if oc.writable() {
				m.mem[line] = oc.val
				m.Writebacks++
			}
			delete(m.held[holder], line)
		}
		if rt := m.rt(h, holder); rt > worstRT {
			worstRT = rt
		}
		invalidated++
	}
	switch e.state {
	case stateModified, stateExclusive:
		if e.owner == node {
			return 0, fmt.Errorf("cohdsm: directory says node %d owns line %d but its cache grants no write right", node, line)
		}
		invalidate(e.owner)
	case stateShared:
		for s := range e.sharers {
			invalidate(s)
		}
	}
	// Invalidations go out in parallel but each ack costs protocol
	// processing at the directory, so latency grows with the sharer
	// count — the scalability wall of inter-node coherency.
	lat += worstRT + params.Duration(invalidated)*m.p.CohProtocolOverhead + m.p.DRAMLatency
	m.Invalidations += uint64(invalidated)
	if m.fanout != nil {
		m.fanout.Observe(int64(invalidated))
	}

	if costOnly {
		// The freshest value: the node's own shared copy if it had one
		// (equal to memory by the S-copies invariant), else home memory,
		// which any dirty owner just wrote back.
		if c, present := m.held[node][line]; present {
			val = c.val
		} else {
			val = m.mem[line]
		}
	}
	e.state = stateModified
	e.owner = node
	e.sharers = make(map[int]bool)
	m.held[node][line] = cached{state: cacheModified, val: val}
	return lat, nil
}

func (m *Model) checkNode(node int) error {
	if node < 0 || node >= m.nodes {
		return fmt.Errorf("cohdsm: node %d outside domain of %d", node, m.nodes)
	}
	return nil
}

// HolderCount returns how many nodes currently cache the line (tests and
// diagnostics).
func (m *Model) HolderCount(line uint64) int {
	n := 0
	for _, h := range m.held {
		if _, ok := h[line]; ok {
			n++
		}
	}
	return n
}

// MemValue returns home memory's current value for a line (tests and the
// consistency lab; stale while a dirty owner exists).
func (m *Model) MemValue(line uint64) uint64 { return m.mem[line] }

// CheckInvariants verifies the directory-consistency invariants over
// every tracked line:
//
//   - single writer: at most one node holds a line writable, and only
//     with the directory in stateModified — or, in the MESI variant,
//     stateExclusive after a silent upgrade — naming it owner;
//   - owner hygiene: the owner field is noOwner whenever the line is
//     neither modified nor exclusive (cleared on every downgrade and
//     invalidation), and the sharer set is empty whenever it is owned
//     (so the set can never contain the owner);
//   - directory/cache agreement: in stateShared the sharer set and the
//     read-only holders are exactly the same nodes; in stateExclusive
//     the owner is the only holder, its copy E or M, and E only in the
//     MESI variant;
//   - value coherence: every shared copy equals home memory (writebacks
//     happened when the protocol required them), and so does every
//     exclusive-clean copy (E is granted clean and silently upgrades to
//     M on the first write).
func (m *Model) CheckInvariants() error {
	for line, e := range m.dir {
		writers := 0
		for i, h := range m.held {
			if c, ok := h[line]; ok && c.writable() {
				writers++
				owned := e.state == stateModified || e.state == stateExclusive
				if !owned || e.owner != i {
					return fmt.Errorf("cohdsm: node %d holds line %d writable but directory disagrees", i, line)
				}
			}
		}
		if writers > 1 {
			return fmt.Errorf("cohdsm: line %d has %d writers", line, writers)
		}
		switch e.state {
		case stateModified:
			if e.owner < 0 || e.owner >= m.nodes {
				return fmt.Errorf("cohdsm: line %d modified with invalid owner %d", line, e.owner)
			}
			if len(e.sharers) != 0 {
				return fmt.Errorf("cohdsm: line %d modified but sharer set has %d entries (must be empty, and never contain the owner)", line, len(e.sharers))
			}
			c, ok := m.held[e.owner][line]
			if !ok || !c.writable() {
				return fmt.Errorf("cohdsm: line %d modified but owner %d holds no writable copy", line, e.owner)
			}
			if m.HolderCount(line) > 1 {
				return fmt.Errorf("cohdsm: line %d modified with %d holders", line, m.HolderCount(line))
			}
		case stateExclusive:
			if !m.mesi {
				return fmt.Errorf("cohdsm: line %d exclusive in the MSI variant", line)
			}
			if e.owner < 0 || e.owner >= m.nodes {
				return fmt.Errorf("cohdsm: line %d exclusive with invalid owner %d", line, e.owner)
			}
			if len(e.sharers) != 0 {
				return fmt.Errorf("cohdsm: line %d exclusive but sharer set has %d entries", line, len(e.sharers))
			}
			c, ok := m.held[e.owner][line]
			if !ok || c.state == cacheShared {
				return fmt.Errorf("cohdsm: line %d exclusive but owner %d holds no E or M copy", line, e.owner)
			}
			if c.state == cacheExclusive && c.val != m.mem[line] {
				return fmt.Errorf("cohdsm: line %d exclusive-clean at node %d caches %d but home memory has %d", line, e.owner, c.val, m.mem[line])
			}
			if m.HolderCount(line) > 1 {
				return fmt.Errorf("cohdsm: line %d exclusive with %d holders", line, m.HolderCount(line))
			}
		case stateShared:
			if e.owner != noOwner {
				return fmt.Errorf("cohdsm: line %d shared but owner field %d not cleared on downgrade", line, e.owner)
			}
			for s := range e.sharers {
				if s < 0 || s >= m.nodes {
					return fmt.Errorf("cohdsm: line %d sharer %d outside domain", line, s)
				}
				c, ok := m.held[s][line]
				if !ok {
					return fmt.Errorf("cohdsm: line %d lists sharer %d which caches nothing", line, s)
				}
				if c.state != cacheShared {
					return fmt.Errorf("cohdsm: line %d shared but sharer %d holds a stronger right", line, s)
				}
				if c.val != m.mem[line] {
					return fmt.Errorf("cohdsm: line %d sharer %d caches %d but home memory has %d (missing writeback)", line, s, c.val, m.mem[line])
				}
			}
			for i, h := range m.held {
				if _, ok := h[line]; ok && !e.sharers[i] {
					return fmt.Errorf("cohdsm: node %d caches shared line %d but is not in the sharer set", i, line)
				}
			}
		case stateInvalid:
			if e.owner != noOwner || len(e.sharers) != 0 || m.HolderCount(line) != 0 {
				return fmt.Errorf("cohdsm: line %d invalid but not empty", line)
			}
		}
	}
	return nil
}
