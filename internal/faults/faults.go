// Package faults describes deterministic fault plans for the simulated
// HNC-HT fabric. The paper defers "concerns related to communication
// reliability" to future work; this package supplies the forcing half of
// that future work — seeded, replayable misbehaviour (frame drops,
// corruption, extra delay, link outages, RMC NACK storms, node stalls)
// that the recovery machinery in mesh/rmc must survive.
//
// A Plan is pure data: it can be parsed from a CLI spec, printed back
// canonically, and carried inside params.Params. An Injector is a Plan
// bound to one simulation: it owns the seeded random stream the fault
// rolls consume. Because every simulation is single-threaded and events
// execute in a strict deterministic order (DESIGN.md §7), the stream is
// consumed in a reproducible order and two runs with the same plan are
// byte-identical — faults included.
package faults

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/addr"
)

// Window is a half-open simulated-time interval [Start, End) in
// picoseconds during which a scheduled fault is active.
type Window struct {
	Start, End int64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t int64) bool { return t >= w.Start && t < w.End }

// Validate reports the first inconsistency.
func (w Window) Validate() error {
	if w.Start < 0 || w.End <= w.Start {
		return fmt.Errorf("faults: window [%d,%d) is empty or negative", w.Start, w.End)
	}
	return nil
}

// LinkWindow takes the mesh link between two adjacent nodes down for the
// window — in both directions, like an unplugged cable.
type LinkWindow struct {
	From, To addr.NodeID
	Window
}

// NodeWindow schedules a per-node fault (NACK storm or server stall).
type NodeWindow struct {
	Node addr.NodeID
	Window
}

// Plan is a complete, seedable fault schedule. The zero value injects
// nothing and is equivalent to running without the fault layer at all.
type Plan struct {
	// Seed initializes the injector's random stream. Two runs of the
	// same plan (same seed) replay the same fault sequence exactly.
	Seed int64

	// Drop, Corrupt, and Delay are per-link-traversal probabilities: a
	// frame crossing one mesh link (or the HToE switch) rolls each in
	// turn. Dropped frames vanish after occupying the link; corrupted
	// frames arrive with a flipped CRC bit; delayed frames arrive
	// DelayBy late.
	Drop, Corrupt, Delay float64

	// DelayBy is the extra latency (picoseconds) added when a delay
	// fires.
	DelayBy int64

	// LinkDowns schedules bidirectional mesh-link outages.
	LinkDowns []LinkWindow

	// NackStorms schedules windows during which a node's client RMC
	// NACKs every admission as if its queue were permanently full.
	NackStorms []NodeWindow

	// Stalls schedules windows during which a node's server RMC makes no
	// forward progress (its service capacity is consumed by the stall).
	Stalls []NodeWindow
}

// Empty reports whether the plan injects nothing; an empty plan must be
// behaviourally identical to no plan.
func (p *Plan) Empty() bool {
	if p == nil {
		return true
	}
	return p.Drop == 0 && p.Corrupt == 0 && p.Delay == 0 &&
		len(p.LinkDowns) == 0 && len(p.NackStorms) == 0 && len(p.Stalls) == 0
}

// Validate reports the first inconsistency in the plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"corrupt", p.Corrupt}, {"delayp", p.Delay}} {
		if !(pr.v >= 0 && pr.v <= 1) { // also rejects NaN
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.DelayBy < 0 {
		return fmt.Errorf("faults: negative delay %d", p.DelayBy)
	}
	if p.Delay > 0 && p.DelayBy == 0 {
		return fmt.Errorf("faults: delay probability %v with zero delay duration", p.Delay)
	}
	for _, lw := range p.LinkDowns {
		if lw.From == 0 || lw.To == 0 || lw.From == lw.To {
			return fmt.Errorf("faults: invalid link %d-%d", lw.From, lw.To)
		}
		if err := lw.Window.Validate(); err != nil {
			return err
		}
	}
	for _, set := range [][]NodeWindow{p.NackStorms, p.Stalls} {
		for _, nw := range set {
			if nw.Node == 0 {
				return fmt.Errorf("faults: invalid node 0 in window")
			}
			if err := nw.Window.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Parse builds a plan from a comma-separated spec, the format of the
// CLIs' -faults flag:
//
//	seed=N            random stream seed (default 1)
//	drop=P            per-link-traversal drop probability
//	corrupt=P         per-link-traversal corruption probability
//	delayp=P          per-link-traversal delay probability
//	delay=D           extra latency when a delay fires (e.g. 300ns)
//	down=A-B@S:E      mesh link A<->B down during [S,E) (e.g. 6-7@0:50us)
//	storm=N@S:E       node N's client RMC NACKs everything during [S,E)
//	stall=N@S:E       node N's server RMC stalls during [S,E)
//
// down/storm/stall may repeat. Durations use Go syntax (ns/us/ms/s).
func Parse(spec string) (*Plan, error) {
	p := &Plan{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			p.Drop, err = strconv.ParseFloat(val, 64)
		case "corrupt":
			p.Corrupt, err = strconv.ParseFloat(val, 64)
		case "delayp":
			p.Delay, err = strconv.ParseFloat(val, 64)
		case "delay":
			p.DelayBy, err = parseDuration(val)
		case "down":
			var lw LinkWindow
			lw, err = parseLinkWindow(val)
			p.LinkDowns = append(p.LinkDowns, lw)
		case "storm":
			var nw NodeWindow
			nw, err = parseNodeWindow(val)
			p.NackStorms = append(p.NackStorms, nw)
		case "stall":
			var nw NodeWindow
			nw, err = parseNodeWindow(val)
			p.Stalls = append(p.Stalls, nw)
		default:
			return nil, fmt.Errorf("faults: unknown key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: %s=%s: %w", key, val, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan in the spec syntax Parse reads, canonically
// ordered, so a plan can be logged and replayed verbatim.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.Drop > 0 {
		parts = append(parts, "drop="+strconv.FormatFloat(p.Drop, 'g', -1, 64))
	}
	if p.Corrupt > 0 {
		parts = append(parts, "corrupt="+strconv.FormatFloat(p.Corrupt, 'g', -1, 64))
	}
	if p.Delay > 0 {
		parts = append(parts, "delayp="+strconv.FormatFloat(p.Delay, 'g', -1, 64))
	}
	if p.DelayBy > 0 {
		parts = append(parts, "delay="+formatDuration(p.DelayBy))
	}
	c := p.canonical()
	for _, lw := range c.LinkDowns {
		parts = append(parts, fmt.Sprintf("down=%d-%d@%s:%s",
			lw.From, lw.To, formatDuration(lw.Start), formatDuration(lw.End)))
	}
	for _, set := range []struct {
		key string
		ws  []NodeWindow
	}{{"storm", c.NackStorms}, {"stall", c.Stalls}} {
		for _, nw := range set.ws {
			parts = append(parts, fmt.Sprintf("%s=%d@%s:%s",
				set.key, nw.Node, formatDuration(nw.Start), formatDuration(nw.End)))
		}
	}
	return strings.Join(parts, ",")
}

// canonical returns a copy of the plan with its windows in the order
// String renders them: links by (from, to, window), node windows by
// (node, window), windows by (start, end). The order is total, so two
// plans listing the same schedule in any order render identically.
func (p *Plan) canonical() Plan {
	c := *p
	c.LinkDowns = slices.Clone(p.LinkDowns)
	slices.SortFunc(c.LinkDowns, func(a, b LinkWindow) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), compareWindows(a.Window, b.Window))
	})
	c.NackStorms = sortedNodeWindows(p.NackStorms)
	c.Stalls = sortedNodeWindows(p.Stalls)
	return c
}

func sortedNodeWindows(ws []NodeWindow) []NodeWindow {
	ws = slices.Clone(ws)
	slices.SortFunc(ws, func(a, b NodeWindow) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), compareWindows(a.Window, b.Window))
	})
	return ws
}

func compareWindows(a, b Window) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
}

// parseLinkWindow reads "A-B@S:E".
func parseLinkWindow(s string) (LinkWindow, error) {
	link, win, ok := strings.Cut(s, "@")
	if !ok {
		return LinkWindow{}, fmt.Errorf("missing @window")
	}
	a, b, ok := strings.Cut(link, "-")
	if !ok {
		return LinkWindow{}, fmt.Errorf("link %q is not A-B", link)
	}
	from, err := parseNode(a)
	if err != nil {
		return LinkWindow{}, err
	}
	to, err := parseNode(b)
	if err != nil {
		return LinkWindow{}, err
	}
	w, err := parseWindow(win)
	if err != nil {
		return LinkWindow{}, err
	}
	return LinkWindow{From: from, To: to, Window: w}, nil
}

// parseNodeWindow reads "N@S:E".
func parseNodeWindow(s string) (NodeWindow, error) {
	node, win, ok := strings.Cut(s, "@")
	if !ok {
		return NodeWindow{}, fmt.Errorf("missing @window")
	}
	n, err := parseNode(node)
	if err != nil {
		return NodeWindow{}, err
	}
	w, err := parseWindow(win)
	if err != nil {
		return NodeWindow{}, err
	}
	return NodeWindow{Node: n, Window: w}, nil
}

func parseNode(s string) (addr.NodeID, error) {
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 16)
	if err != nil || n == 0 || n > uint64(addr.MaxNode) {
		return 0, fmt.Errorf("invalid node %q", s)
	}
	return addr.NodeID(n), nil
}

func parseWindow(s string) (Window, error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return Window{}, fmt.Errorf("window %q is not start:end", s)
	}
	start, err := parseDuration(a)
	if err != nil {
		return Window{}, err
	}
	end, err := parseDuration(b)
	if err != nil {
		return Window{}, err
	}
	return Window{Start: start, End: end}, nil
}

// durUnits are the suffixes parseDuration accepts, longest first so "ns"
// wins over "s". Values are picoseconds per unit.
var durUnits = []struct {
	suffix string
	ps     int64
}{
	{"ps", 1},
	{"ns", 1_000},
	{"us", 1_000_000},
	{"µs", 1_000_000},
	{"ms", 1_000_000_000},
	{"s", 1_000_000_000_000},
}

// parseDuration reads a simulator duration ("300ns", "1.5us", bare "0").
func parseDuration(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "0" {
		return 0, nil
	}
	for _, u := range durUnits {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		num := strings.TrimSuffix(s, u.suffix)
		v, err := strconv.ParseFloat(num, 64)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("invalid duration %q", s)
		}
		return int64(v * float64(u.ps)), nil
	}
	return 0, fmt.Errorf("duration %q needs a unit (ps/ns/us/ms/s)", s)
}

// formatDuration renders picoseconds with the largest exact unit.
func formatDuration(ps int64) string {
	if ps == 0 {
		return "0"
	}
	for i := len(durUnits) - 1; i >= 0; i-- {
		u := durUnits[i]
		if u.suffix == "µs" {
			continue
		}
		if ps%u.ps == 0 {
			return strconv.FormatInt(ps/u.ps, 10) + u.suffix
		}
	}
	return strconv.FormatInt(ps, 10) + "ps"
}
