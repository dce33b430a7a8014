package params

import (
	"errors"
	"strings"
	"testing"
)

// linkLatSpecs are -linklat specs in canonical form: each renders back
// verbatim. They also seed FuzzParseLinkLat.
var linkLatSpecs = []string{
	"x=100ns",
	"y=140ns",
	"x=100ns,y=140ns",
	"edge=1.0-2.0:250ns",
	"x=100ns,y=140ns,edge=1.0-2.0:250ns,edge=0.1-0.2:80ns",
}

func TestLinkLatSpecRoundTrip(t *testing.T) {
	for _, spec := range linkLatSpecs {
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
		"z=100ns",                // unknown key
		"x=banana",               // not a duration
		"edge=1.0-3.0:250ns",     // endpoints not mesh neighbors
		"edge=1.0-2.0",           // missing latency
		"edge=1.0:250ns",         // missing second endpoint
		"edge=a.b-2.0:250ns",     // non-numeric coordinate
		"edge=1.0-2.0:-250ns",    // negative latency
		"x",                      // not key=value
		"x=0s",                   // explicit zero is not "unset"
		"y=0ns",                  // explicit zero is not "unset"
		"x=-100ns",               // negative axis latency
		"x=100000000000000000ns", // past the picosecond clock's range
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
