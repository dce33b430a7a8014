package mesh

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/params"
)

func faultFabric(t *testing.T, plan *faults.Plan) (*Fabric, *faults.Injector) {
	t.Helper()
	topo := topo4x4(t)
	inj := faults.NewInjector(plan)
	return NewFabric(metrics.NewRegistry(), topo, params.Default(), inj), inj
}

// TestFaultFreeOutcomeMatchesDeliver: without an injector DeliverOutcome
// takes the plain XY delivery — the same arrival, hops, and counters as
// the fault-aware walk under a plan that never fires — which is what
// keeps empty-plan runs byte-identical.
func TestFaultFreeOutcomeMatchesDeliver(t *testing.T) {
	topo := topo4x4(t)
	p := params.Default()
	a := NewFabric(metrics.NewRegistry(), topo, p, faults.NewInjector(&faults.Plan{Seed: 1}))
	b := NewFabric(metrics.NewRegistry(), topo, p, nil)

	src, dst := topo.NodeAt(0, 0), topo.NodeAt(3, 2)
	walked := a.DeliverOutcome(0, src, dst, 72)
	out := b.DeliverOutcome(0, src, dst, 72)
	if out.Status != faults.Delivered {
		t.Fatalf("status = %v", out.Status)
	}
	if out != walked {
		t.Errorf("fault-free outcome %+v != inert-plan walk %+v", out, walked)
	}
	if out.Hops != topo.Hops(src, dst) {
		t.Errorf("fault-free route took %d hops, XY distance is %d", out.Hops, topo.Hops(src, dst))
	}
	if a.Reroutes != 0 || b.Reroutes != 0 || b.Unreachable != 0 {
		t.Error("fault-free fabric counted faults")
	}
}

// TestRerouteAroundDownLink: with the XY link down the frame detours and
// still arrives; the detour is counted along with its extra traversals.
func TestRerouteAroundDownLink(t *testing.T) {
	f, _ := faultFabric(t, &faults.Plan{
		Seed:      1,
		LinkDowns: []faults.LinkWindow{{From: 1, To: 2, Window: faults.Window{Start: 0, End: 1 << 40}}},
	})
	topo := f.topo
	out := f.DeliverOutcome(0, 1, 2, 72)
	if out.Status != faults.Delivered {
		t.Fatalf("status = %v, want delivered via detour", out.Status)
	}
	if out.Hops <= topo.Hops(1, 2) {
		t.Errorf("detour took %d hops, no longer than the down XY route", out.Hops)
	}
	if f.Reroutes == 0 {
		t.Error("reroute not counted")
	}
	if want := uint64(out.Hops - topo.Hops(1, 2)); f.DetourHops != want {
		t.Errorf("DetourHops = %d, want %d", f.DetourHops, want)
	}
}

// TestRouteRestoredAfterOutage: once the window closes the fabric goes
// back to the shortest XY route.
func TestRouteRestoredAfterOutage(t *testing.T) {
	const end = 1_000_000
	f, _ := faultFabric(t, &faults.Plan{
		Seed:      1,
		LinkDowns: []faults.LinkWindow{{From: 1, To: 2, Window: faults.Window{Start: 0, End: end}}},
	})
	during := f.DeliverOutcome(0, 1, 2, 72)
	after := f.DeliverOutcome(end, 1, 2, 72)
	if during.Hops <= after.Hops {
		t.Errorf("outage hops %d not greater than restored hops %d", during.Hops, after.Hops)
	}
	if after.Hops != 1 {
		t.Errorf("restored route took %d hops, want 1", after.Hops)
	}
}

// TestUnreachableWhenIsolated: downing every link of the source makes the
// destination unroutable; the fabric reports it instead of spinning.
func TestUnreachableWhenIsolated(t *testing.T) {
	win := faults.Window{Start: 0, End: 1 << 40}
	f, _ := faultFabric(t, &faults.Plan{
		Seed: 1,
		// Node 1's only neighbors on the 4x4 mesh are 2 and 5.
		LinkDowns: []faults.LinkWindow{
			{From: 1, To: 2, Window: win},
			{From: 1, To: 5, Window: win},
		},
	})
	out := f.DeliverOutcome(0, 1, 16, 72)
	if out.Status != faults.Unreachable {
		t.Fatalf("status = %v, want unreachable", out.Status)
	}
	if f.Unreachable != 1 {
		t.Errorf("Unreachable = %d, want 1", f.Unreachable)
	}
	if f.Delivered != 0 {
		t.Error("isolated frame counted as delivered")
	}
}

// TestHopCapBoundsWandering: an outage pocket that forces repeated
// backtracking must terminate via the hop cap rather than loop forever.
func TestHopCapBoundsWandering(t *testing.T) {
	win := faults.Window{Start: 0, End: 1 << 40}
	// Cut node 4 (corner, neighbors 3 and 8) off completely: a frame for
	// it can wander the mesh but never arrive.
	f, _ := faultFabric(t, &faults.Plan{
		Seed: 1,
		LinkDowns: []faults.LinkWindow{
			{From: 3, To: 4, Window: win},
			{From: 8, To: 4, Window: win},
		},
	})
	topo := f.topo
	out := f.DeliverOutcome(0, 1, 4, 72)
	if out.Status != faults.Unreachable {
		t.Fatalf("status = %v, want unreachable", out.Status)
	}
	if limit := 4*(topo.W+topo.H) + 8; out.Hops > limit {
		t.Errorf("frame took %d hops, cap is %d", out.Hops, limit)
	}
}

// TestDropAndCorruptOutcomes: probability-1 plans classify every frame.
func TestDropAndCorruptOutcomes(t *testing.T) {
	f, inj := faultFabric(t, &faults.Plan{Seed: 1, Drop: 1})
	out := f.DeliverOutcome(0, 1, 2, 72)
	if out.Status != faults.Dropped || inj.Drops != 1 {
		t.Errorf("status = %v, Drops = %d; want dropped, 1", out.Status, inj.Drops)
	}
	// The frame occupied the link before vanishing.
	if f.Hops != 1 {
		t.Errorf("dropped frame traversed %d links, want 1", f.Hops)
	}

	f, inj = faultFabric(t, &faults.Plan{Seed: 1, Corrupt: 1})
	out = f.DeliverOutcome(0, 1, 2, 72)
	if out.Status != faults.Corrupted || inj.Corruptions == 0 {
		t.Errorf("status = %v, Corruptions = %d; want corrupted arrival", out.Status, inj.Corruptions)
	}
	if f.Delivered != 1 {
		t.Error("corrupted frame must still arrive (the receiver's CRC rejects it)")
	}
}

// TestDelayAddsLatency: a probability-1 delay shifts arrival by exactly
// DelayBy per traversed hop.
func TestDelayAddsLatency(t *testing.T) {
	const extra = 7_000_000 // 7us in ps
	topo := topo4x4(t)
	p := params.Default()
	clean := NewFabric(metrics.NewRegistry(), topo, p, nil)
	slow := NewFabric(metrics.NewRegistry(), topo, p, faults.NewInjector(&faults.Plan{Seed: 1, Delay: 1, DelayBy: extra}))

	base := clean.DeliverOutcome(0, 1, 3, 72)
	out := slow.DeliverOutcome(0, 1, 3, 72)
	if out.Status != faults.Delivered {
		t.Fatalf("status = %v", out.Status)
	}
	if want := base.Arrive + int64(base.Hops)*extra; out.Arrive != want {
		t.Errorf("delayed arrival %d, want %d (base %d + %d hops x %d)", out.Arrive, want, base.Arrive, base.Hops, extra)
	}
}
