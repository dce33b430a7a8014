package memmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/params"
	"repro/internal/swap"
)

func TestLocalAndRemoteConstants(t *testing.T) {
	p := params.Default()
	l := Local{P: p}
	if l.Access(0, false) != p.DRAMLatency || l.Access(1<<40, true) != p.DRAMLatency {
		t.Error("local latency not constant")
	}
	r := Remote{P: p, Hops: 3}
	if r.Access(12345, false) != p.RemoteRoundTrip(3) {
		t.Error("remote latency wrong")
	}
	if (Remote{P: p, Hops: 1}).Access(0, false) >= r.Access(0, false) {
		t.Error("more hops not slower")
	}
	if l.Name() == "" || r.Name() == "" {
		t.Error("unnamed accessors")
	}
}

func TestSwapHitMissCosts(t *testing.T) {
	p := params.Default()
	s, err := NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const page = params.PageSize
	miss := s.Access(0, false)
	hit := s.Access(8, false)
	if hit != p.DRAMLatency {
		t.Errorf("resident access = %d, want %d", hit, p.DRAMLatency)
	}
	wantMiss := p.SwapTrapOverhead + p.SwapPageTransfer + 2*p.HopLatency + p.DRAMLatency
	if miss != wantMiss {
		t.Errorf("fault = %d, want %d", miss, wantMiss)
	}
	// Dirty eviction pays a writeback.
	s.Access(page, true)            // page 1 resident dirty
	s.Access(2*page, false)         // page 2: evicts page 0 (clean)
	cost := s.Access(3*page, false) // evicts page 1 (dirty)
	if want := wantMiss + p.SwapPageTransfer + p.HopLatency; cost != want {
		t.Errorf("fault evicting a dirty page = %d, want %d (fault + writeback)", cost, want)
	}
}

func TestSwapThrashingVsFit(t *testing.T) {
	p := params.Default()
	fit, _ := NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, 64)
	thrash, _ := NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, 64)

	var fitTime, thrashTime params.Duration
	// Working set of 32 pages fits; 1024 pages thrashes.
	for i := 0; i < 4096; i++ {
		fitTime += fit.Access(uint64(i%32)*params.PageSize, false)
		thrashTime += thrash.Access(uint64(i%1024)*params.PageSize, false)
	}
	if thrashTime < 10*fitTime {
		t.Errorf("thrashing (%d) not dramatically worse than fitting (%d)", thrashTime, fitTime)
	}
}

func TestNewSwapValidation(t *testing.T) {
	p := params.Default()
	if _, err := NewSwap(p, swap.DiskDevice{P: p}, 0); err == nil {
		t.Error("zero residency accepted")
	}
}

func TestDiskSlowerThanRemoteSwap(t *testing.T) {
	p := params.Default()
	disk, _ := NewSwap(p, swap.DiskDevice{P: p}, 16)
	remote, _ := NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, 16)
	if disk.Access(0, false) <= remote.Access(0, false) {
		t.Error("disk fault not slower than remote-swap fault")
	}
}

func TestBuildConfigs(t *testing.T) {
	p := params.Default()
	for _, cfg := range []Config{ConfigLocal, ConfigRemote, ConfigRemoteSwap, ConfigDiskSwap} {
		acc, err := Build(cfg, p, 1, 128)
		if err != nil {
			t.Errorf("Build(%v): %v", cfg, err)
			continue
		}
		if acc.Access(0, false) <= 0 {
			t.Errorf("%v: non-positive latency", cfg)
		}
		if cfg.String() == "" {
			t.Errorf("%v unnamed", int(cfg))
		}
	}
	if _, err := Build(Config(99), p, 1, 128); err == nil {
		t.Error("unknown config accepted")
	}
	if Config(99).String() == "" {
		t.Error("unknown config renders empty")
	}
}

// TestRemoteInsensitiveToLocalityProperty: Equation (2)'s defining
// property — remote-memory time depends only on the access count, never
// on the addresses.
func TestRemoteInsensitiveToLocalityProperty(t *testing.T) {
	p := params.Default()
	r := Remote{P: p, Hops: 2}
	f := func(addrs []uint64) bool {
		var total params.Duration
		for _, a := range addrs {
			total += r.Access(a, a%2 == 0)
		}
		return total == params.Duration(len(addrs))*p.RemoteRoundTrip(2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSwapMonotoneInResidencyProperty: more resident pages never makes a
// fixed trace slower.
func TestSwapMonotoneInResidencyProperty(t *testing.T) {
	p := params.Default()
	f := func(trace []uint16, capSel uint8) bool {
		small := int(capSel%32) + 1
		big := small * 2
		run := func(capacity int) params.Duration {
			s, err := NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, capacity)
			if err != nil {
				return -1
			}
			var total params.Duration
			for _, a := range trace {
				total += s.Access(uint64(a)*params.PageSize/4, false)
			}
			return total
		}
		return run(big) <= run(small)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStriped(t *testing.T) {
	p := params.Default()
	s, err := NewStriped(p, []Stripe{
		{Start: 0, Size: 1000, Acc: Local{P: p}},
		{Start: 1000, Size: 1000, Acc: Remote{P: p, Hops: 1}},
		{Start: 5000, Size: 1000, Acc: Remote{P: p, Hops: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Access(500, false); got != p.DRAMLatency {
		t.Errorf("local stripe = %d", got)
	}
	if got := s.Access(1999, false); got != p.RemoteRoundTrip(1) {
		t.Errorf("1-hop stripe = %d", got)
	}
	if got := s.Access(5000, true); got != p.RemoteRoundTrip(4) {
		t.Errorf("4-hop stripe = %d", got)
	}
	// Gap and beyond-the-end accesses are pessimistic and counted.
	if got := s.Access(3000, false); got != p.RemoteRoundTrip(6) {
		t.Errorf("gap access = %d, want diameter round trip", got)
	}
	s.Access(99999, false)
	if s.Unmapped != 2 {
		t.Errorf("Unmapped = %d", s.Unmapped)
	}
	if len(s.Stripes()) != 3 || s.Name() == "" {
		t.Error("introspection broken")
	}
}

func TestStripedValidation(t *testing.T) {
	p := params.Default()
	if _, err := NewStriped(p, nil); err == nil {
		t.Error("empty stripes accepted")
	}
	if _, err := NewStriped(p, []Stripe{{Start: 0, Size: 0, Acc: Local{P: p}}}); err == nil {
		t.Error("empty stripe accepted")
	}
	if _, err := NewStriped(p, []Stripe{{Start: 0, Size: 10, Acc: nil}}); err == nil {
		t.Error("nil accessor accepted")
	}
	if _, err := NewStriped(p, []Stripe{
		{Start: 0, Size: 100, Acc: Local{P: p}},
		{Start: 50, Size: 100, Acc: Local{P: p}},
	}); err == nil {
		t.Error("overlapping stripes accepted")
	}
}

func TestLineCached(t *testing.T) {
	p := params.Default()
	if _, err := NewLineCached(nil, p, 8); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewLineCached(Local{P: p}, p, 0); err == nil {
		t.Error("zero lines accepted")
	}
	inner := &meter{acc: Remote{P: p, Hops: 1}}
	c, err := NewLineCached(inner, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Miss fills from the backing; hit costs L1 and touches nothing.
	first := c.Access(0, false)
	if first <= p.RemoteRoundTrip(1) {
		t.Errorf("fill = %d, should include the remote trip", first)
	}
	if got := c.Access(8, false); got != p.L1Latency {
		t.Errorf("hit = %d", got)
	}
	if inner.accesses != 1 {
		t.Errorf("backing saw %d accesses, want 1", inner.accesses)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", c.HitRate())
	}
	// Dirty eviction writes back through the backing.
	c.Access(64, true) // dirty line 1
	c.Access(128, false)
	c.Access(192, false)
	before := inner.accesses
	c.Access(256, false) // evicts line 0, clean: one fill
	c.Access(320, false) // evicts line 1, dirty: a fill and a writeback
	if inner.accesses != before+3 {
		t.Errorf("backing saw %d accesses for two misses and one dirty victim, want 3", inner.accesses-before)
	}
	if c.Name() != inner.Name() {
		t.Error("LineCached renamed its backing")
	}
}

func TestLineCachedEmptyHitRate(t *testing.T) {
	p := params.Default()
	c, err := NewLineCached(Local{P: p}, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.HitRate() != 0 {
		t.Error("untouched cache has a hit rate")
	}
}
