package addr

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperExamples(t *testing.T) {
	// The worked example of Section III-B: node 3 reserves local range
	// starting at 0x000041000000 and returns it prefixed with node 3.
	local := Phys(0x000041000000)
	if !local.IsLocal() {
		t.Fatalf("%v should be local", local)
	}
	prefixed := local.WithNode(3)
	if got := prefixed.Node(); got != 3 {
		t.Errorf("Node() = %d, want 3", got)
	}
	if got := prefixed.Local(); got != local {
		t.Errorf("Local() = %v, want %v", got, local)
	}
	// Node 3's base: 3 << 34.
	if got := NodeBase(3); got != Phys(3)<<34 {
		t.Errorf("NodeBase(3) = %v, want %v", got, Phys(3)<<34)
	}
}

func TestPrefixRoundTripProperty(t *testing.T) {
	f := func(raw uint64, node uint16) bool {
		local := Phys(raw & (LocalSpace - 1))
		n := NodeID(node%MaxNode) + 1 // valid ids are 1..MaxNode
		p := local.WithNode(n)
		return p.Node() == n && p.Local() == local && !p.IsLocal() && p.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithNodePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("double prefix", func() { Phys(0x1).WithNode(2).WithNode(3) })
	mustPanic("node 0", func() { Phys(0x1).WithNode(0) })
	mustPanic("NodeBase(0)", func() { NodeBase(0) })
}

func TestLoopback(t *testing.T) {
	a := Phys(0x1000).WithNode(5)
	if !a.Loopback(5) {
		t.Error("address prefixed with self should be loopback")
	}
	if a.Loopback(6) {
		t.Error("address prefixed with other node is not loopback")
	}
	if Phys(0x1000).Loopback(5) {
		t.Error("local address is never loopback")
	}
	if got := a.Canonical(5); got != Phys(0x1000) {
		t.Errorf("Canonical(self) = %v, want local form", got)
	}
	if got := a.Canonical(6); got != a {
		t.Errorf("Canonical(other) = %v, want unchanged", got)
	}
}

func TestCanonicalEquivalenceProperty(t *testing.T) {
	// The loopback alias and the local address name the same cell.
	f := func(raw uint64, node uint16) bool {
		local := Phys(raw & (LocalSpace - 1))
		n := NodeID(node%MaxNode) + 1
		return local.WithNode(n).Canonical(n) == local.Canonical(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignmentHelpers(t *testing.T) {
	a := Phys(0x12345)
	if got := a.Line(64); got != Phys(0x12340) {
		t.Errorf("Line = %v", got)
	}
	// Alignment must not disturb the node prefix.
	p := Phys(0x12345).WithNode(7)
	if got := p.Line(64).Node(); got != 7 {
		t.Errorf("Line dropped node prefix: node = %d", got)
	}
}

func TestRange(t *testing.T) {
	r := Range{Start: 0x1000, Size: 0x1000}
	o := Range{Start: 0x1800, Size: 0x1000}
	if !r.Overlaps(o) || !o.Overlaps(r) {
		t.Error("overlapping ranges reported disjoint")
	}
	d := Range{Start: 0x2000, Size: 0x1000}
	if r.Overlaps(d) {
		t.Error("adjacent ranges reported overlapping")
	}
	if (Range{Start: 0x1000, Size: 0}).Overlaps(r) {
		t.Error("empty range overlaps nothing")
	}
}

func TestStringFormat(t *testing.T) {
	if got := Phys(0xC41000000B0).String(); got != "0x0c41000000b0" {
		t.Errorf("String() = %q", got)
	}
}

func TestMemMapRouting(t *testing.T) {
	m, err := NewMemMap(1, 16, 16<<30)
	if err != nil {
		t.Fatal(err)
	}
	// Local memory -> local MC.
	if tgt, err := m.Route(Phys(0x1000)); err != nil || tgt != TargetLocalMC {
		t.Errorf("local route = %v, %v", tgt, err)
	}
	// Prefixed address -> RMC (the paper's 0x000C4100000B0 targets node 3).
	if tgt, err := m.Route(Phys(0x000C41000000B0 >> 4)); err == nil && tgt != TargetRMC {
		t.Errorf("prefixed route = %v", tgt)
	}
	a := Phys(0x41000000).WithNode(3)
	if tgt, err := m.Route(a); err != nil || tgt != TargetRMC {
		t.Errorf("route(%v) = %v, %v; want RMC", a, tgt, err)
	}
	// Node outside the cluster -> error.
	if _, err := m.Route(Phys(0x100).WithNode(17)); err == nil {
		t.Error("route to node 17 in a 16-node cluster accepted")
	}
	// Beyond remote node's installed memory: only reachable with
	// memEach < LocalSpace; 16 GB == LocalSpace so skip here.
}

func TestMemMapSmallMemory(t *testing.T) {
	m, err := NewMemMap(2, 4, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Route(Phys(2 << 30).WithNode(3)); err == nil {
		t.Error("route beyond remote installed memory accepted")
	}
	if _, err := m.Route(Phys(2 << 30)); err == nil {
		t.Error("route beyond installed local memory accepted")
	}
}

func TestMemMapEntries(t *testing.T) {
	m, err := NewMemMap(2, 4, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	entries := m.Entries()
	if len(entries) != 5 { // local + 4 RMC aliases
		t.Fatalf("got %d entries, want 5", len(entries))
	}
	if entries[0].Target != TargetLocalMC {
		t.Errorf("first entry should be local memory, got %v", entries[0].Target)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Target != TargetRMC {
			t.Errorf("entry %d target = %v, want RMC", i, entries[i].Target)
		}
		if entries[i].Range.Start <= entries[i-1].Range.Start {
			t.Errorf("entries not sorted at %d", i)
		}
	}
	if !strings.Contains(m.String(), "loopback alias") {
		t.Error("rendered map should flag the loopback alias")
	}
}

func TestMemMapErrors(t *testing.T) {
	if _, err := NewMemMap(0, 4, 1<<30); err == nil {
		t.Error("node id 0 accepted")
	}
	if _, err := NewMemMap(5, 4, 1<<30); err == nil {
		t.Error("node id outside cluster accepted")
	}
	if _, err := NewMemMap(1, 4, 0); err == nil {
		t.Error("zero memory accepted")
	}
	if _, err := NewMemMap(1, 4, LocalSpace+1); err == nil {
		t.Error("memory exceeding local space accepted")
	}
	if _, err := NewMemMap(1, MaxNode+1, 1<<30); err == nil {
		t.Error("too-large cluster accepted")
	}
}
