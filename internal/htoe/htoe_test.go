package htoe

import (
	"testing"

	"repro/internal/addr"
)

func fabric(t *testing.T, nodes int) *Fabric {
	t.Helper()
	f, err := New(nodes, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, DefaultConfig()); err == nil {
		t.Error("0 nodes accepted")
	}
	bad := DefaultConfig()
	bad.NICLatency = 0
	if _, err := New(16, bad); err == nil {
		t.Error("zero latency accepted")
	}
}

func TestConstantDistance(t *testing.T) {
	f := fabric(t, 16)
	// Every pair is two hops: the delivery time between any two distinct
	// nodes is identical (unloaded).
	base, hops := f.Deliver(0, 1, 2, 72)
	if hops != 2 {
		t.Errorf("hops = %d, want 2", hops)
	}
	for _, dst := range []addr.NodeID{3, 9, 16} {
		f2 := fabric(t, 16)
		got, _ := f2.Deliver(0, 1, dst, 72)
		if got != base {
			t.Errorf("delivery 1->%d = %d, want the constant %d", dst, got, base)
		}
	}
}

func TestUnloadedLatencyBudget(t *testing.T) {
	f := fabric(t, 4)
	cfg := DefaultConfig()
	got, _ := f.Deliver(0, 1, 2, 72)
	// NIC + serialize(up) + wire + switch-occ + switch + serialize(down)
	// + wire + NIC; 72+38=110 bytes → 2 occupancy units.
	occ := 2 * cfg.LinkOccupancy
	want := cfg.NICLatency + occ + cfg.WireLatency + cfg.SwitchOccupancy +
		cfg.SwitchLatency + occ + cfg.WireLatency + cfg.NICLatency
	if got != want {
		t.Errorf("unloaded delivery = %d, want %d", got, want)
	}
}

func TestSelfDelivery(t *testing.T) {
	f := fabric(t, 4)
	if at, hops := f.Deliver(50, 2, 2, 72); at != 50 || hops != 0 {
		t.Errorf("self delivery = %d, %d", at, hops)
	}
}

func TestMTUSegmentation(t *testing.T) {
	// A 4 KiB page needs 3 Ethernet frames; overhead shows in the wire
	// bytes and the switch sees 3 frames.
	n, wire := frames(4096)
	if n != 3 {
		t.Errorf("4096-byte payload used %d frames, want 3", n)
	}
	if wire != 4096+3*FrameOverhead {
		t.Errorf("wire bytes = %d", wire)
	}
	if n, _ := frames(0); n != 1 {
		t.Error("empty payload should still use one frame")
	}
	if n, _ := frames(MTU); n != 1 {
		t.Error("exactly-MTU payload should use one frame")
	}

	f := fabric(t, 4)
	f.Deliver(0, 1, 2, 4096)
	if f.Frames != 3 || f.Delivered != 1 {
		t.Errorf("Frames=%d Delivered=%d", f.Frames, f.Delivered)
	}
}

func TestSwitchIsTheSharedBottleneck(t *testing.T) {
	f := fabric(t, 16)
	// Disjoint node pairs contend only at the switch.
	t1, _ := f.Deliver(0, 1, 2, 72)
	t2, _ := f.Deliver(0, 3, 4, 72)
	if t2 <= t1 {
		t.Errorf("second disjoint delivery (%d) not delayed behind the shared switch (%d)", t2, t1)
	}
	if t2-t1 != DefaultConfig().SwitchOccupancy {
		t.Errorf("switch serialization gap = %d", t2-t1)
	}
	if u := f.sw.Utilization(t2); u <= 0 {
		t.Error("switch utilization not tracked")
	}
}

func TestPerNICContention(t *testing.T) {
	f := fabric(t, 16)
	// Two frames from the same source serialize on its uplink as well.
	t1, _ := f.Deliver(0, 1, 2, 4096)
	t2, _ := f.Deliver(0, 1, 3, 4096)
	gap := t2 - t1
	if gap <= DefaultConfig().SwitchOccupancy {
		t.Errorf("same-source gap %d should exceed switch-only contention", gap)
	}
}

func TestNoExpressLinks(t *testing.T) {
	f := fabric(t, 4)
	if _, err := f.DeliverExpress(0, 1, 2, 72); err == nil {
		t.Error("switched fabric offered an express link")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	f := fabric(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("delivery outside the fabric did not panic")
		}
	}()
	f.Deliver(0, 1, 9, 72)
}
