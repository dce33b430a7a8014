package params

import (
	"testing"
	"time"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestDefaultGeometry(t *testing.T) {
	p := Default()
	if got := p.Nodes(); got != 16 {
		t.Errorf("Nodes() = %d, want 16", got)
	}
	if got := p.PoolSize(); got != 128<<30 {
		t.Errorf("PoolSize() = %d, want 128 GiB", got)
	}
	if got := p.PooledMemPerNode(); got != 8<<30 {
		t.Errorf("PooledMemPerNode() = %d, want 8 GiB", got)
	}
}

func TestRemoteRoundTrip(t *testing.T) {
	p := Default()
	rt1 := p.RemoteRoundTrip(1)
	rt3 := p.RemoteRoundTrip(3)
	if rt1 <= p.DRAMLatency {
		t.Errorf("remote round trip %d not greater than local latency %d", rt1, p.DRAMLatency)
	}
	if rt3-rt1 != 4*p.HopLatency {
		t.Errorf("3-hop minus 1-hop = %d, want %d (2 extra hops each way)", rt3-rt1, 4*p.HopLatency)
	}
	// Calibration promise from DESIGN.md: about 1 µs at 1 hop, and below
	// Violin's 3 µs which the paper calls large.
	if rt1 < 500*Nanosecond || rt1 > 3*Microsecond {
		t.Errorf("1-hop round trip %d ps outside the calibrated band", rt1)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Params)
	}{
		{"zero mesh", func(p *Params) { p.MeshWidth = 0 }},
		{"too many nodes", func(p *Params) { p.MeshWidth, p.MeshHeight = 1<<7, 1<<7 }},
		{"mesh 4294967296x4294967296 wraps to 0 nodes", func(p *Params) { p.MeshWidth, p.MeshHeight = 4294967296, 4294967296 }},
		{"mesh 3037000500x3037000500 wraps negative", func(p *Params) { p.MeshWidth, p.MeshHeight = 3037000500, 3037000500 }},
		{"no cores", func(p *Params) { p.CoresPerNode = 0 }},
		{"no sockets", func(p *Params) { p.SocketsPerNode = 0 }},
		{"zero memory", func(p *Params) { p.MemPerNode = 0 }},
		{"unaligned memory", func(p *Params) { p.MemPerNode = PageSize + 1 }},
		{"private exceeds total", func(p *Params) { p.PrivateMemPerNode = p.MemPerNode + PageSize }},
		{"unaligned private", func(p *Params) { p.PrivateMemPerNode = PageSize / 2 }},
		{"memory too large for local space", func(p *Params) { p.MemPerNode = 1 << (PhysAddrBits - NodePrefixBits + 1) }},
		{"zero local window", func(p *Params) { p.LocalOutstanding = 0 }},
		{"zero remote window", func(p *Params) { p.RemoteOutstanding = 0 }},
		{"zero rmc queue", func(p *Params) { p.RMCQueueDepth = 0 }},
		{"negative latency", func(p *Params) { p.DRAMLatency = -1 }},
		// A zero retry penalty retries a NACKed request at the same
		// instant forever; negative costs print negative times.
		{"zero retry penalty", func(p *Params) { p.RMCRetryPenalty = 0 }},
		{"negative retry penalty", func(p *Params) { p.RMCRetryPenalty = -1 }},
		{"negative retry waste", func(p *Params) { p.RMCRetryWaste = -Nanosecond }},
		{"negative swap trap", func(p *Params) { p.SwapTrapOverhead = -1 }},
		{"negative swap transfer", func(p *Params) { p.SwapPageTransfer = -100 * Microsecond }},
		{"negative L1 latency", func(p *Params) { p.L1Latency = -1 }},
		{"negative probe latency", func(p *Params) { p.CacheProbeLatency = -1 }},
		{"negative DRAM occupancy", func(p *Params) { p.DRAMOccupancy = -1 }},
		{"negative link occupancy", func(p *Params) { p.LinkOccupancy = -1 }},
		{"negative disk latency", func(p *Params) { p.DiskLatency = -1 }},
		{"negative retransmit timeout", func(p *Params) { p.RetransmitTimeout = -1 }},
		{"negative directory latency", func(p *Params) { p.CohDirectoryLatency = -1 }},
		{"negative protocol overhead", func(p *Params) { p.CohProtocolOverhead = -1 }},
		{"zero resident pages", func(p *Params) { p.SwapResidentPages = 0 }},
		// Zero is not a spelling of the default: Default sets the geometry.
		{"zero bulk frame lines", func(p *Params) { p.BulkFrameLines = 0 }},
		{"zero bulk max frames", func(p *Params) { p.BulkMaxFrames = 0 }},
		{"bulk frame lines past bound", func(p *Params) { p.BulkFrameLines = MaxBulkFrameLines + 1 }},
		{"bulk max frames past wire cap", func(p *Params) { p.BulkMaxFrames = MaxBulkFrames + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Default()
			tc.edit(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestDurationConversions(t *testing.T) {
	if got := ToStd(1500 * Nanosecond); got != 1500*time.Nanosecond {
		t.Errorf("ToStd = %v, want 1.5µs", got)
	}
	if got := FromStd(2 * time.Microsecond); got != 2*Microsecond {
		t.Errorf("FromStd = %d, want %d", got, 2*Microsecond)
	}
	if got := FromStd(ToStd(7 * Microsecond)); got != 7*Microsecond {
		t.Errorf("roundtrip = %d, want %d", got, 7*Microsecond)
	}
}

func TestUnitScale(t *testing.T) {
	if Second != 1e12 {
		t.Errorf("Second = %d ps, want 1e12", Second)
	}
	if Microsecond/Nanosecond != 1000 {
		t.Errorf("µs/ns = %d, want 1000", Microsecond/Nanosecond)
	}
}

func TestNewKnobValidation(t *testing.T) {
	p := Default()
	p.PrefetchDepth = -1
	if p.Validate() == nil {
		t.Error("negative prefetch depth accepted")
	}
	p = Default()
	p.OSReserveBytes = p.PrivateMemPerNode
	if p.Validate() == nil {
		t.Error("reserve swallowing the private zone accepted")
	}
	p = Default()
	p.Fabric = FabricKind(9)
	if p.Validate() == nil {
		t.Error("unknown fabric accepted")
	}
	p = Default()
	p.Fabric = FabricHToE
	if err := p.Validate(); err != nil {
		t.Errorf("HToE fabric rejected: %v", err)
	}
}

func TestFabricKindString(t *testing.T) {
	for k, want := range map[FabricKind]string{FabricMesh: "2D mesh", FabricHToE: "HT-over-Ethernet"} {
		if k.String() != want {
			t.Errorf("%d renders %q", int(k), k.String())
		}
	}
	if FabricKind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// bulkSpecs are -bulk specs in canonical form: each renders back
// verbatim. They also seed FuzzParseBulk.
var bulkSpecs = []string{"frame=4", "maxframes=64", "frame=16,maxframes=256"}

func TestBulkSpecRoundTrip(t *testing.T) {
	// String renders exactly what ParseBulk reads — specs can be logged
	// and replayed verbatim, like fault plans.
	for _, spec := range bulkSpecs {
		s, err := ParseBulk(spec)
		if err != nil {
			t.Fatalf("ParseBulk(%q): %v", spec, err)
		}
		if got := s.String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
		back, err := ParseBulk(s.String())
		if err != nil || back != s {
			t.Errorf("re-parse of %q = %+v, %v", s.String(), back, err)
		}
	}
	if s, err := ParseBulk(""); err != nil || !s.Empty() || s.String() != "" {
		t.Errorf("empty spec = %+v, %v", s, err)
	}
	on, err := ParseBulk("on")
	if err != nil || on.FrameLines != DefaultBulkFrameLines || on.MaxFrames != DefaultBulkMaxFrames {
		t.Errorf(`ParseBulk("on") = %+v, %v`, on, err)
	}
	for _, bad := range []string{"frame", "frame=x", "what=1", "frame=257", "maxframes=300", "frame=0", "maxframes=0", "frame=-1"} {
		if _, err := ParseBulk(bad); err == nil {
			t.Errorf("ParseBulk(%q) accepted", bad)
		}
	}
	// Apply only touches what the spec sets.
	p := Default()
	s, _ := ParseBulk("frame=4")
	s.Apply(&p)
	if p.BulkFrameLines != 4 || p.BulkMaxFrames != DefaultBulkMaxFrames {
		t.Errorf("Apply wrote %d/%d", p.BulkFrameLines, p.BulkMaxFrames)
	}
	if p.BurstMaxLines() != 4*DefaultBulkMaxFrames {
		t.Errorf("BurstMaxLines = %d", p.BurstMaxLines())
	}
}
