package cache

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func smallHierarchy(t *testing.T, sockets int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(sockets, Config{Sets: 4, Ways: 2, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		cfg     Config
		wantErr bool
		sets    bool // the error is a *SetsError
	}{
		{DefaultConfig(), false, false},
		{Config{Sets: 0, Ways: 1, LineSize: 64}, true, false},
		{Config{Sets: 1, Ways: 0, LineSize: 64}, true, false},
		{Config{Sets: 1, Ways: 1, LineSize: 48}, true, false},
		{Config{Sets: MaxSets, Ways: 8, LineSize: 64}, false, false},
		{Config{Sets: MaxSets + 1, Ways: 1, LineSize: 64}, true, true},
		{Config{Sets: 1 << 20, Ways: 8, LineSize: 64}, true, true},
	} {
		err := tc.cfg.Validate()
		var se *SetsError
		if (err != nil) != tc.wantErr || errors.As(err, &se) != tc.sets {
			t.Errorf("%+v: Validate = %v, want error %v (SetsError %v)", tc.cfg, err, tc.wantErr, tc.sets)
		}
		if tc.sets && se.Sets != tc.cfg.Sets {
			t.Errorf("%+v: SetsError names %d sets", tc.cfg, se.Sets)
		}
	}
	if _, err := NewHierarchy(0, DefaultConfig()); err == nil {
		t.Error("zero sockets accepted")
	}
	var se *SetsError
	if _, err := NewHierarchy(4, Config{Sets: MaxSets + 1, Ways: 8, LineSize: 64}); !errors.As(err, &se) {
		t.Errorf("NewHierarchy over MaxSets: %v, want a *SetsError", err)
	}
}

// TestMaxSetsAddressed fills every set of a MaxSets geometry with two
// lines, so both pools hand out their last slot, and reads every line
// back: the 16-bit index addresses the largest geometry Validate allows.
func TestMaxSetsAddressed(t *testing.T) {
	cfg := Config{Sets: MaxSets, Ways: 2, LineSize: 64}
	h, err := NewHierarchy(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 2; round++ {
		for set := uint64(0); set < MaxSets; set++ {
			if _, err := h.Access(0, addr.Phys((round*MaxSets+set)*64), round == 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := &h.sockets[0]
	if c.nOnes != MaxSets || c.nFulls != MaxSets {
		t.Fatalf("pools handed out %d one-way and %d full slots, want %d each", c.nOnes, c.nFulls, MaxSets)
	}
	for set := uint64(0); set < MaxSets; set++ {
		if s := h.StateIn(0, addr.Phys(set*64)); s != Exclusive {
			t.Fatalf("set %d way 0 = %v, want E", set, s)
		}
		if s := h.StateIn(0, addr.Phys((MaxSets+set)*64)); s != Modified {
			t.Fatalf("set %d way 1 = %v, want M", set, s)
		}
	}
	if dirty := h.FlushAll(); dirty != MaxSets {
		t.Errorf("FlushAll wrote back %d lines, want %d", dirty, MaxSets)
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := smallHierarchy(t, 2)
	r, err := h.Access(0, 0x1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit || r.State != Exclusive || r.Probes != 0 {
		t.Errorf("cold read = %+v, want E miss with no probes", r)
	}
	r, _ = h.Access(0, 0x1008, false) // same line
	if !r.Hit {
		t.Error("second read of the line missed")
	}
	if h.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", h.HitRate())
	}
}

func TestMESITransitions(t *testing.T) {
	h := smallHierarchy(t, 2)
	a := addr.Phys(0x2000)

	// Socket 0 reads -> E; socket 1 reads -> both S with one probe.
	h.Access(0, a, false)
	r, _ := h.Access(1, a, false)
	if r.Probes != 1 || r.State != Shared {
		t.Errorf("second reader = %+v, want 1 probe, S", r)
	}
	if h.StateIn(0, a) != Shared {
		t.Errorf("first reader downgraded to %v, want S", h.StateIn(0, a))
	}

	// Socket 0 writes: S->M upgrade invalidating socket 1.
	r, _ = h.Access(0, a, true)
	if !r.Hit || r.State != Modified || r.Probes != 1 {
		t.Errorf("upgrade = %+v, want hit, M, 1 probe", r)
	}
	if h.StateIn(1, a) != Invalid {
		t.Error("sharer not invalidated on upgrade")
	}

	// Socket 1 reads back: probe hits M at socket 0, forces writeback,
	// both end Shared.
	r, _ = h.Access(1, a, false)
	if r.Probes != 1 || r.Writebacks != 1 || r.State != Shared {
		t.Errorf("read of modified = %+v, want probe+writeback, S", r)
	}
	if h.StateIn(0, a) != Shared {
		t.Error("writer not downgraded to S")
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	h := smallHierarchy(t, 2)
	a := addr.Phys(0x40)
	h.Access(0, a, false) // E
	r, _ := h.Access(0, a, true)
	if !r.Hit || r.Probes != 0 || r.State != Modified {
		t.Errorf("E->M upgrade = %+v, want silent hit", r)
	}
}

func TestWriteMissInvalidatesModifiedOwner(t *testing.T) {
	h := smallHierarchy(t, 2)
	a := addr.Phys(0x80)
	h.Access(0, a, true) // socket 0 holds M
	r, _ := h.Access(1, a, true)
	if r.Hit || r.Probes != 1 || r.Writebacks != 1 || r.State != Modified {
		t.Errorf("write miss over M = %+v", r)
	}
	if h.StateIn(0, a) != Invalid {
		t.Error("old owner still holds the line")
	}
}

func TestEvictionLRUAndVictim(t *testing.T) {
	h := smallHierarchy(t, 1) // 4 sets × 2 ways
	// Three lines mapping to set 0: 0, 4*64=256, 512.
	h.Access(0, 0, true) // M
	h.Access(0, 256, false)
	r, _ := h.Access(0, 512, false) // evicts LRU = line 0 (dirty)
	if !r.VictimDirty || r.Victim != 0 || r.Writebacks != 1 {
		t.Errorf("eviction = %+v, want dirty victim line 0", r)
	}
	if h.StateIn(0, 0) != Invalid {
		t.Error("victim still resident")
	}
	// Clean eviction reports the victim but no writeback.
	r, _ = h.Access(0, 768, false) // evicts 256 (clean, LRU)
	if r.VictimDirty || r.Victim != 256 || r.Writebacks != 0 {
		t.Errorf("clean eviction = %+v", r)
	}
}

func TestVictimKeepsNodePrefix(t *testing.T) {
	h := smallHierarchy(t, 1)
	remote := addr.Phys(0x100).WithNode(7)
	h.Access(0, remote, true)
	// Fill the set until the remote line is evicted.
	var victim addr.Phys
	for i := 1; i <= 2; i++ {
		r, _ := h.Access(0, addr.Phys(0x100+uint64(i)*256), false)
		if r.VictimDirty {
			victim = r.Victim
		}
	}
	if victim.Node() != 7 {
		t.Errorf("victim = %v, lost its node prefix", victim)
	}
}

func TestFlushAll(t *testing.T) {
	h := smallHierarchy(t, 2)
	h.Access(0, 0x000, true)
	h.Access(0, 0x100, true)
	h.Access(1, 0x200, false)
	if dirty := h.FlushAll(); dirty != 2 {
		t.Errorf("FlushAll wrote back %d lines, want 2", dirty)
	}
	for _, a := range []addr.Phys{0x000, 0x100} {
		if h.StateIn(0, a) != Invalid {
			t.Errorf("line %v survived flush", a)
		}
	}
	// After the flush, re-reads miss (read-only phase refills cleanly).
	r, _ := h.Access(1, 0x200, false)
	if r.Hit {
		t.Error("flushed line hit")
	}
}

func TestInvalidSocket(t *testing.T) {
	h := smallHierarchy(t, 2)
	if _, err := h.Access(2, 0, false); err == nil {
		t.Error("socket beyond domain accepted")
	}
	if _, err := h.Access(-1, 0, false); err == nil {
		t.Error("negative socket accepted")
	}
}

// TestSingleWriterInvariant checks the MESI invariant: at most one socket
// holds a line in M or E, and M/E never coexists with S elsewhere.
func TestSingleWriterInvariant(t *testing.T) {
	h := smallHierarchy(t, 4)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			socket := int(op) % 4
			line := addr.Phys((uint64(op)>>2)%16) * 64
			write := op&0x8000 != 0
			if _, err := h.Access(socket, line, write); err != nil {
				return false
			}
			// Check the invariant on the touched line.
			owners, sharers := 0, 0
			for s := 0; s < 4; s++ {
				switch h.StateIn(s, line) {
				case Modified, Exclusive:
					owners++
				case Shared:
					sharers++
				}
			}
			if owners > 1 || (owners == 1 && sharers > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if s.String() != want {
			t.Errorf("%d renders %q", s, s.String())
		}
	}
}

// allocated returns the fewest bytes fn allocated over five calls.
// Other goroutines (the test runner's among them) can allocate while
// fn runs, and that only ever adds, so the minimum is fn's own cost.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestFreshHierarchyFootprint pins the point of lazy tag storage: a
// node's four-socket domain costs a few hundred bytes until it is used
// (the eager arrays were 768 KiB), and one access materializes exactly
// one one-way slot of one socket.
func TestFreshHierarchyFootprint(t *testing.T) {
	var h *Hierarchy
	n := allocated(func() {
		var err error
		if h, err = NewHierarchy(4, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1024 {
		t.Errorf("fresh 4-socket hierarchy allocated %d B, want a few hundred", n)
	}
	if _, err := h.Access(2, 0x12340, true); err != nil {
		t.Fatal(err)
	}
	for s := range h.sockets {
		c := &h.sockets[s]
		want := [2]uint16{}
		if s == 2 {
			want[0] = 1
		}
		if got := [2]uint16{c.nOnes, c.nFulls}; got != want {
			t.Errorf("socket %d handed out %v {one-way, full} slots after one access by socket 2, want %v", s, got, want)
		}
		if s != 2 && c.slots != nil {
			t.Errorf("untouched socket %d allocated its set index", s)
		}
	}
}

// sparseLines returns n distinct line addresses drawn uniformly from a
// 1 GiB range: the pattern a node of a large mesh sees, about one line
// in each set it touches.
func sparseLines(n int) []addr.Phys {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[addr.Phys]bool, n)
	var out []addr.Phys
	for len(out) < n {
		a := addr.Phys(uint64(rng.Int63n(1<<30)) &^ 63)
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// TestSparseFillFootprint pins what sparse traffic costs: a fresh
// hierarchy with one socket filling 160 distinct random lines,
// fabric32's load on one node, allocates at most 8 KiB.
func TestSparseFillFootprint(t *testing.T) {
	lines := sparseLines(160)
	var h *Hierarchy
	n := allocated(func() {
		var err error
		if h, err = NewHierarchy(4, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		for _, a := range lines {
			if _, err := h.Access(0, a, false); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n > 8<<10 {
		t.Errorf("160 sparse fills allocated %d B, want at most %d", n, 8<<10)
	}
	if h.Misses != 160 {
		t.Errorf("%d misses, want 160", h.Misses)
	}
}
