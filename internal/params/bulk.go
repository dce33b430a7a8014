// Bulk data-plane tuning: the bounds and defaults of
// Params.BulkFrameLines / Params.BulkMaxFrames, and the parsed form of
// the CLIs' -bulk flag (same canonical round-trip discipline as the
// -faults spec in package faults: String renders exactly what Parse
// reads, so a tuning can be logged and replayed verbatim).
package params

import (
	"fmt"
	"strconv"
	"strings"
)

// Bulk burst geometry bounds and defaults.
const (
	// DefaultBulkFrameLines is the lines-per-data-frame default: 16
	// lines = 1 KiB payload per frame, big enough to amortize the frame
	// header ~128× against a scalar line, small enough that a dropped
	// frame's retransmission stays cheap.
	DefaultBulkFrameLines = 16

	// DefaultBulkMaxFrames is the frames-per-burst default (the wire
	// format's maximum: index and burst length share a 16-bit tag).
	DefaultBulkMaxFrames = 256

	// MaxBulkFrameLines bounds BulkFrameLines (a 256-line frame is a
	// 16 KiB payload — far past any amortization benefit).
	MaxBulkFrameLines = 256

	// MaxBulkFrames is the wire-format burst-length ceiling.
	MaxBulkFrames = 256
)

// BurstMaxLines returns the largest line count one burst can carry;
// larger transfers split into multiple bursts.
func (p Params) BurstMaxLines() int { return p.BulkFrameLines * p.BulkMaxFrames }

// BulkSpec is the parsed -bulk flag: burst-geometry overrides for the
// bulk data plane. The zero value is the empty spec (flag absent).
type BulkSpec struct {
	// FrameLines overrides Params.BulkFrameLines (0 = keep).
	FrameLines int
	// MaxFrames overrides Params.BulkMaxFrames (0 = keep).
	MaxFrames int
}

// ParseBulk builds a bulk tuning from a comma-separated spec, the
// format of the CLIs' -bulk flag:
//
//	on                defaults (equivalent to frame=16,maxframes=256)
//	frame=N           cache lines per burst data frame
//	maxframes=N       data frames per burst (wire format caps at 256)
func ParseBulk(spec string) (BulkSpec, error) {
	var s BulkSpec
	trimmed := strings.TrimSpace(spec)
	if trimmed == "" {
		return s, nil
	}
	if trimmed == "on" || trimmed == "default" {
		return BulkSpec{FrameLines: DefaultBulkFrameLines, MaxFrames: DefaultBulkMaxFrames}, nil
	}
	for _, field := range strings.Split(trimmed, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return BulkSpec{}, fmt.Errorf("params: bulk spec %q is not key=value", field)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return BulkSpec{}, fmt.Errorf("params: bulk %s=%s: %w", key, val, err)
		}
		var dst *int
		switch key {
		case "frame":
			dst = &s.FrameLines
		case "maxframes":
			dst = &s.MaxFrames
		default:
			return BulkSpec{}, fmt.Errorf("params: unknown bulk key %q", key)
		}
		// In the spec struct zero means "unset: keep the default", so an
		// explicit zero must fail loudly rather than silently vanish.
		if n <= 0 {
			return BulkSpec{}, fmt.Errorf("params: bulk %s=%s must be positive (omit %s to keep the default)", key, val, key)
		}
		*dst = n
	}
	if err := s.Validate(); err != nil {
		return BulkSpec{}, err
	}
	return s, nil
}

// Validate reports the first inconsistency in the spec. Zero fields
// override nothing.
func (s BulkSpec) Validate() error {
	switch {
	case s.FrameLines < 0 || s.FrameLines > MaxBulkFrameLines:
		return fmt.Errorf("params: bulk frame=%d outside [0,%d] (0 keeps the default)", s.FrameLines, MaxBulkFrameLines)
	case s.MaxFrames < 0 || s.MaxFrames > MaxBulkFrames:
		return fmt.Errorf("params: bulk maxframes=%d outside [0,%d] (0 keeps the default)", s.MaxFrames, MaxBulkFrames)
	}
	return nil
}

// Empty reports whether the spec overrides nothing (flag absent).
func (s BulkSpec) Empty() bool { return s == BulkSpec{} }

// String renders the spec in the syntax ParseBulk reads, canonically
// ordered. The empty spec renders as "".
func (s BulkSpec) String() string {
	if s.Empty() {
		return ""
	}
	var parts []string
	if s.FrameLines > 0 {
		parts = append(parts, fmt.Sprintf("frame=%d", s.FrameLines))
	}
	if s.MaxFrames > 0 {
		parts = append(parts, fmt.Sprintf("maxframes=%d", s.MaxFrames))
	}
	return strings.Join(parts, ",")
}

// Apply writes the spec's overrides into p.
func (s BulkSpec) Apply(p *Params) {
	if s.FrameLines > 0 {
		p.BulkFrameLines = s.FrameLines
	}
	if s.MaxFrames > 0 {
		p.BulkMaxFrames = s.MaxFrames
	}
}
