package params

import (
	"errors"
	"strings"
	"testing"
)

func TestWindowModeParseRoundTrip(t *testing.T) {
	for _, mode := range []WindowMode{WindowUniform, WindowElide} {
		got, err := ParseWindowMode(mode.String())
		if err != nil {
			t.Fatalf("ParseWindowMode(%q): %v", mode.String(), err)
		}
		if got != mode {
			t.Errorf("ParseWindowMode(%q) = %v, want %v", mode.String(), got, mode)
		}
		if !mode.Valid() {
			t.Errorf("%v.Valid() = false", mode)
		}
	}
	if got, err := ParseWindowMode(""); err != nil || got != WindowElide {
		t.Errorf("ParseWindowMode(\"\") = %v, %v; want the elide default", got, err)
	}
	if _, err := ParseWindowMode("sideways"); err == nil {
		t.Error("ParseWindowMode accepted an unknown mode")
	}
	if WindowMode(0) != WindowElide {
		t.Error("the zero WindowMode is not the elide default")
	}
	if WindowMode(99).Valid() {
		t.Error("WindowMode(99).Valid() = true")
	}
}

// TestWindowModeRejectsDistance pins the removal of the distance
// schedule: elide plans every window at least as wide, so the name is no
// longer accepted, and the error lists only the modes that exist.
func TestWindowModeRejectsDistance(t *testing.T) {
	_, err := ParseWindowMode("distance")
	if err == nil {
		t.Fatal("ParseWindowMode(\"distance\") succeeded, want an unknown-mode error")
	}
	if !strings.Contains(err.Error(), "want uniform or elide") {
		t.Errorf("unknown-mode error %q does not name exactly uniform and elide", err)
	}
}

func TestLinkLatSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"x=100ns",
		"y=140ns",
		"x=100ns,y=140ns",
		"edge=1.0-2.0:250ns",
		"x=100ns,y=140ns,edge=1.0-2.0:250ns,edge=0.1-0.2:80ns",
	} {
		s, err := ParseLinkLat(spec)
		if err != nil {
			t.Fatalf("ParseLinkLat(%q): %v", spec, err)
		}
		if s.Empty() {
			t.Fatalf("ParseLinkLat(%q) parsed to the empty spec", spec)
		}
		if got := s.String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
		again, err := ParseLinkLat(s.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", s.String(), err)
		}
		if again.String() != s.String() {
			t.Errorf("second round trip diverged: %q vs %q", again.String(), s.String())
		}
	}
	if s, err := ParseLinkLat(""); err != nil || !s.Empty() || s.String() != "" {
		t.Errorf("empty spec: %+v, %v", s, err)
	}
}

func TestLinkLatSpecRejections(t *testing.T) {
	for _, spec := range []string{
		"z=100ns",             // unknown key
		"x=banana",            // not a duration
		"edge=1.0-3.0:250ns",  // endpoints not mesh neighbors
		"edge=1.0-2.0",        // missing latency
		"edge=1.0:250ns",      // missing second endpoint
		"edge=a.b-2.0:250ns",  // non-numeric coordinate
		"edge=1.0-2.0:-250ns", // negative latency
		"x",                   // not key=value
		"x=0s",                // explicit zero is not "unset"
		"y=0ns",               // explicit zero is not "unset"
		"x=-100ns",            // negative axis latency
	} {
		if _, err := ParseLinkLat(spec); err == nil {
			t.Errorf("ParseLinkLat(%q) succeeded, want error", spec)
		}
	}
}

func TestLinkLatEdgeLatency(t *testing.T) {
	s, err := ParseLinkLat("x=100ns,edge=1.0-2.0:250ns")
	if err != nil {
		t.Fatal(err)
	}
	hop := Duration(120 * Nanosecond)
	if got := s.EdgeLatency(1, 0, 2, 0, hop); got != 250*Nanosecond {
		t.Errorf("specific edge = %v, want 250ns", got)
	}
	if got := s.EdgeLatency(2, 0, 1, 0, hop); got != 250*Nanosecond {
		t.Errorf("specific edge reversed = %v, want 250ns (bidirectional)", got)
	}
	if got := s.EdgeLatency(0, 1, 1, 1, hop); got != 100*Nanosecond {
		t.Errorf("horizontal edge = %v, want the x axis override 100ns", got)
	}
	if got := s.EdgeLatency(1, 1, 1, 2, hop); got != hop {
		t.Errorf("vertical edge = %v, want the hop fallback %v", got, hop)
	}
	if got := s.MinLatency(hop); got != 100*Nanosecond {
		t.Errorf("MinLatency = %v, want 100ns", got)
	}
	if got := (LinkLatSpec{}).MinLatency(hop); got != hop {
		t.Errorf("empty spec MinLatency = %v, want hop %v", got, hop)
	}
}

func TestValidateLinkLatAgainstMesh(t *testing.T) {
	p := Default()
	ll, err := ParseLinkLat("edge=7.0-8.0:250ns") // outside the default 4x4
	if err != nil {
		t.Fatal(err)
	}
	p.LinkLat = ll
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("Validate() = %v, want an outside-the-mesh rejection", err)
	}
}

func TestShardGateErrorTyped(t *testing.T) {
	p := Default()
	p.Fabric = FabricHToE
	p.Shards = 4
	err := p.Validate()
	var gate *ShardGateError
	if !errors.As(err, &gate) {
		t.Fatalf("Validate() = %v, want a *ShardGateError", err)
	}
	if gate.Shards != 4 {
		t.Errorf("gate.Shards = %d, want 4", gate.Shards)
	}
	if !strings.Contains(gate.Error(), "-shards 1") {
		t.Errorf("gate error %q does not name the fix", gate.Error())
	}
}

func TestValidateWindowMode(t *testing.T) {
	p := Default()
	p.Window = WindowMode(99)
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted an unknown window mode")
	}
}
