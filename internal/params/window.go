// Sharded-engine window tuning: the lookahead schedule of the
// conservative PDES engine (-window), the optional per-edge mesh link
// latency table (-linklat), and the typed error for features that only
// run on the single-shard engine. Both flag forms follow the canonical
// round-trip discipline of -faults and -bulk: String renders exactly
// what Parse reads.
package params

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// WindowMode selects how the sharded engine sizes its lookahead windows
// (DESIGN §16). Both modes produce byte-identical figures and metrics;
// they differ only in how many barriers the schedule pays.
type WindowMode int

const (
	// WindowElide, the default and zero value, bounds each shard's window
	// by the partition geometry and the earliest pending work of every
	// other shard: the window fast-forwards to the earliest time any
	// shard could be affected — an appointment, not a guess.
	WindowElide WindowMode = iota
	// WindowUniform is the baseline: every shard runs the same global
	// window derived from the minimum single-hop latency, and every
	// barrier drains the whole exchange.
	WindowUniform
)

// ParseWindowMode reads the CLI -window syntax.
func ParseWindowMode(s string) (WindowMode, error) {
	switch strings.TrimSpace(s) {
	case "", "elide":
		return WindowElide, nil
	case "uniform":
		return WindowUniform, nil
	}
	return 0, fmt.Errorf("params: unknown window mode %q (want uniform or elide)", s)
}

func (m WindowMode) String() string {
	switch m {
	case WindowUniform:
		return "uniform"
	case WindowElide:
		return "elide"
	default:
		return fmt.Sprintf("WindowMode(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined modes.
func (m WindowMode) Valid() bool { return m == WindowUniform || m == WindowElide }

// EdgeLat overrides the traversal latency of the mesh edge between two
// adjacent nodes, applied in both directions.
type EdgeLat struct {
	AX, AY int // first endpoint, mesh coordinates
	BX, BY int // second endpoint, adjacent to A
	Lat    Duration
}

// LinkLatSpec is the parsed -linklat flag: an optional per-edge latency
// table for the mesh fabric. The zero value is the empty spec (flag
// absent, every edge at HopLatency), so existing figures are untouched
// unless a table is asked for. Both the router and the sharded engine's
// lookahead bound consume the same table, which is what keeps the
// conservative windows provably safe under asymmetric links.
type LinkLatSpec struct {
	// X and Y override the latency of every horizontal (resp. vertical)
	// mesh edge; 0 keeps HopLatency.
	X, Y Duration
	// Edges lists specific-edge overrides, which win over the axis
	// defaults. Kept in parse order; String renders the same order.
	Edges []EdgeLat
}

// Empty reports whether the spec overrides nothing (flag absent).
func (s LinkLatSpec) Empty() bool { return s.X == 0 && s.Y == 0 && len(s.Edges) == 0 }

// EdgeLatency returns the traversal latency of the directed mesh edge
// from (fx,fy) to (tx,ty) under this spec, with hop as the uniform
// fallback. Specific-edge overrides win over axis overrides.
func (s LinkLatSpec) EdgeLatency(fx, fy, tx, ty int, hop Duration) Duration {
	for _, e := range s.Edges {
		if (e.AX == fx && e.AY == fy && e.BX == tx && e.BY == ty) ||
			(e.AX == tx && e.AY == ty && e.BX == fx && e.BY == fy) {
			return e.Lat
		}
	}
	if fy == ty && s.X != 0 {
		return s.X
	}
	if fx == tx && s.Y != 0 {
		return s.Y
	}
	return hop
}

// ParseLinkLat builds a link-latency table from a comma-separated spec,
// the format of the CLIs' -linklat flag:
//
//	x=100ns               every horizontal edge
//	y=140ns               every vertical edge
//	edge=1.0-2.0:250ns    the edge between nodes (1,0) and (2,0)
func ParseLinkLat(spec string) (LinkLatSpec, error) {
	var s LinkLatSpec
	trimmed := strings.TrimSpace(spec)
	if trimmed == "" {
		return s, nil
	}
	for _, field := range strings.Split(trimmed, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return LinkLatSpec{}, fmt.Errorf("params: linklat spec %q is not key=value", field)
		}
		switch key {
		case "x", "y":
			d, err := time.ParseDuration(val)
			if err != nil {
				return LinkLatSpec{}, fmt.Errorf("params: linklat %s=%s: %w", key, val, err)
			}
			// In the spec struct zero means "unset: keep HopLatency", so an
			// explicit x=0s must fail loudly rather than silently vanish.
			if d <= 0 {
				return LinkLatSpec{}, fmt.Errorf("params: linklat %s=%s must be positive (omit %s to keep the uniform hop latency)", key, val, key)
			}
			if key == "x" {
				s.X = FromStd(d)
			} else {
				s.Y = FromStd(d)
			}
		case "edge":
			pair, lat, ok := strings.Cut(val, ":")
			if !ok {
				return LinkLatSpec{}, fmt.Errorf("params: linklat edge %q wants X.Y-X.Y:latency", val)
			}
			a, b, ok := strings.Cut(pair, "-")
			if !ok {
				return LinkLatSpec{}, fmt.Errorf("params: linklat edge %q wants two endpoints", val)
			}
			var e EdgeLat
			var err error
			if e.AX, e.AY, err = parseCoord(a); err != nil {
				return LinkLatSpec{}, err
			}
			if e.BX, e.BY, err = parseCoord(b); err != nil {
				return LinkLatSpec{}, err
			}
			d, err := time.ParseDuration(lat)
			if err != nil {
				return LinkLatSpec{}, fmt.Errorf("params: linklat edge %s: %w", val, err)
			}
			e.Lat = FromStd(d)
			s.Edges = append(s.Edges, e)
		default:
			return LinkLatSpec{}, fmt.Errorf("params: unknown linklat key %q", key)
		}
	}
	if err := s.Validate(); err != nil {
		return LinkLatSpec{}, err
	}
	return s, nil
}

func parseCoord(s string) (x, y int, err error) {
	xs, ys, ok := strings.Cut(s, ".")
	if !ok {
		return 0, 0, fmt.Errorf("params: linklat endpoint %q wants X.Y", s)
	}
	if x, err = strconv.Atoi(xs); err != nil {
		return 0, 0, fmt.Errorf("params: linklat endpoint %q: %w", s, err)
	}
	if y, err = strconv.Atoi(ys); err != nil {
		return 0, 0, fmt.Errorf("params: linklat endpoint %q: %w", s, err)
	}
	return x, y, nil
}

// Validate reports the first inconsistency in the spec alone; edge
// endpoints are checked against the mesh geometry by Params.Validate.
func (s LinkLatSpec) Validate() error {
	if s.X < 0 || s.Y < 0 {
		return fmt.Errorf("params: linklat axis latencies must not be negative (x=%d, y=%d); zero means unset", s.X, s.Y)
	}
	for _, e := range s.Edges {
		if e.Lat <= 0 {
			return fmt.Errorf("params: linklat edge %d.%d-%d.%d latency %d must be positive", e.AX, e.AY, e.BX, e.BY, e.Lat)
		}
		dx, dy := e.BX-e.AX, e.BY-e.AY
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy != 1 {
			return fmt.Errorf("params: linklat edge %d.%d-%d.%d endpoints are not mesh neighbors", e.AX, e.AY, e.BX, e.BY)
		}
	}
	return nil
}

// validateFor checks the spec against a concrete mesh geometry.
func (s LinkLatSpec) validateFor(w, h int) error {
	for _, e := range s.Edges {
		if e.AX < 0 || e.AX >= w || e.AY < 0 || e.AY >= h ||
			e.BX < 0 || e.BX >= w || e.BY < 0 || e.BY >= h {
			return fmt.Errorf("params: linklat edge %d.%d-%d.%d outside the %dx%d mesh", e.AX, e.AY, e.BX, e.BY, w, h)
		}
	}
	return s.Validate()
}

// String renders the spec in the syntax ParseLinkLat reads. The empty
// spec renders as "".
func (s LinkLatSpec) String() string {
	if s.Empty() {
		return ""
	}
	var parts []string
	if s.X != 0 {
		parts = append(parts, fmt.Sprintf("x=%s", ToStd(s.X)))
	}
	if s.Y != 0 {
		parts = append(parts, fmt.Sprintf("y=%s", ToStd(s.Y)))
	}
	for _, e := range s.Edges {
		parts = append(parts, fmt.Sprintf("edge=%d.%d-%d.%d:%s", e.AX, e.AY, e.BX, e.BY, ToStd(e.Lat)))
	}
	return strings.Join(parts, ",")
}

// MinLatency returns the smallest traversal latency any mesh edge can
// have under this spec — the value the conservative lookahead bound must
// assume when it cannot see a concrete edge.
func (s LinkLatSpec) MinLatency(hop Duration) Duration {
	min := hop
	if s.X != 0 && s.X < min {
		min = s.X
	}
	if s.Y != 0 && s.Y < min {
		min = s.Y
	}
	for _, e := range s.Edges {
		if e.Lat < min {
			min = e.Lat
		}
	}
	return min
}

// ShardGateError reports a feature that only runs on the single-shard
// engine being combined with Shards > 1. It is a typed error so CLIs
// and tests can detect the condition with errors.As instead of matching
// message text.
type ShardGateError struct {
	Feature string // human-readable feature name
	Shards  int    // the offending shard count
}

func (e *ShardGateError) Error() string {
	return fmt.Sprintf("params: %s is not shard-partitioned; it requires -shards 1, got %d", e.Feature, e.Shards)
}
