package rmc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/faults"
	"repro/internal/hnc"
	"repro/internal/ht"
	"repro/internal/sim"
)

// newFaultRig builds the bare RMC network with a fault plan armed: one
// injector shared by the fabric and every RMC, exactly as the cluster
// wires it.
func newFaultRig(t *testing.T, nodes int, plan *faults.Plan) (*rig, *faults.Injector) {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(plan)
	return buildRig(t, nodes, inj), inj
}

// lineRead is a scalar read of the line at local address a on node.
func lineRead(node addr.NodeID, a addr.Phys) ht.Packet {
	return ht.Packet{Cmd: ht.CmdRdSized, Addr: a.WithNode(node), Count: 64}
}

// TestRetransmitRecoversFromDrops: under a heavy drop rate every request
// still completes with its line's response — the retransmission layer
// absorbs the losses, and nothing is abandoned.
func TestRetransmitRecoversFromDrops(t *testing.T) {
	r, inj := newFaultRig(t, 4, &faults.Plan{Seed: 11, Drop: 0.2})
	req := lineRead(2, 0x41000000)

	const n = 40
	completions := 0
	for i := 0; i < n; i++ {
		if err := r.rmcs[1].Request(sim.Time(i)*r.p.RetransmitTimeout, req, false, func(_ sim.Time, rsp ht.Packet, err error) {
			if err != nil {
				t.Errorf("request failed under drop rate below the budget: %v", err)
				return
			}
			wantLine(t, rsp, ht.CmdRdResponse, 64)
			completions++
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.set.Run()
	if completions != n {
		t.Fatalf("%d of %d requests completed", completions, n)
	}
	if inj.Drops == 0 {
		t.Fatal("drop rate 0.2 over 40 round trips injected nothing; test is vacuous")
	}
	total := func(f func(*RMC) uint64) (s uint64) {
		for _, m := range r.rmcs {
			s += f(m)
		}
		return
	}
	if total(func(m *RMC) uint64 { return m.Retransmits }) == 0 {
		t.Error("drops injected but nothing retransmitted")
	}
	if got := total(func(m *RMC) uint64 { return m.Abandoned }); got != 0 {
		t.Errorf("%d requests abandoned below the retry budget", got)
	}
}

// TestCorruptedFramesRetransmitted: probability-1 corruption mangles
// every arrival; the receiver counts and discards them and the sender
// finally abandons — corruption alone can never complete a request or
// crash the server.
func TestCorruptedFramesRetransmitted(t *testing.T) {
	r, _ := newFaultRig(t, 4, &faults.Plan{Seed: 3, Corrupt: 1})
	req := lineRead(2, 0x41000000)

	var gotErr error
	calls := 0
	if err := r.rmcs[1].Request(0, req, false, func(_ sim.Time, _ ht.Packet, err error) {
		calls++
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	if calls != 1 {
		t.Fatalf("done invoked %d times", calls)
	}
	var ue *UnreachableError
	if !errors.As(gotErr, &ue) {
		t.Fatalf("err = %v, want *UnreachableError", gotErr)
	}
	if ue.Dst != 2 || ue.Attempts != r.p.RetransmitBudget+1 {
		t.Errorf("UnreachableError{%d, %d}, want dst 2 after %d attempts", ue.Dst, ue.Attempts, r.p.RetransmitBudget+1)
	}
	// Every mangled copy arrived and was counted by the server's CRC check.
	if got := r.rmcs[2].verif.Corrupt; got != uint64(r.p.RetransmitBudget)+1 {
		t.Errorf("server counted %d corrupt frames, want %d", got, r.p.RetransmitBudget+1)
	}
	if r.rmcs[1].Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", r.rmcs[1].Abandoned)
	}
}

// TestCleanDeliveryFailingVerificationPanics: under a fault plan an
// injected corruption reaches the receiver only as the mangled duplicate,
// so a clean delivery that fails its check is a model bug — a buffer
// recycled while its frame was in flight, say. It must panic, naming the
// node and the error, as it does without a plan, not drop the frame and
// strand its request.
func TestCleanDeliveryFailingVerificationPanics(t *testing.T) {
	r, _ := newFaultRig(t, 4, &faults.Plan{Seed: 1, Drop: 0.1})
	// A response frame is checked by accept, a request frame by
	// receive, which also decapsulates it: both must panic.
	for _, tc := range []struct {
		name string
		step func(*hnc.Sealed)
	}{
		{"accept", r.rmcs[2].accept},
		{"receive", func(s *hnc.Sealed) { r.rmcs[2].receive(s, new(ht.Packet)) }},
	} {
		var so sendOp
		r.rmcs[1].seal(&so, &ht.Packet{Cmd: ht.CmdWrSized, Addr: addr.Phys(0x1000).WithNode(2), Count: 64, Data: bytes.Repeat([]byte{0x5a}, 64)})
		so.s.Frame.Payload.Data[7] ^= 0x01
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "rmc2") || !strings.Contains(msg, "checksum mismatch") {
					t.Errorf("%s of a corrupted clean delivery: panic %q, want one naming rmc2 and the checksum mismatch", tc.name, msg)
				}
			}()
			tc.step(&so.s)
		}()
	}
}

// TestAbandonWhenIsolated: a destination cut off for the whole run fails
// with the typed error after the budget — graceful degradation, not a
// wedged event loop.
func TestAbandonWhenIsolated(t *testing.T) {
	win := faults.Window{Start: 0, End: 1 << 50}
	r, _ := newFaultRig(t, 8, &faults.Plan{
		Seed: 1,
		LinkDowns: []faults.LinkWindow{
			{From: 1, To: 2, Window: win},
			{From: 1, To: 5, Window: win},
		},
	})
	req := lineRead(6, 0x41000000)

	var gotErr error
	if err := r.rmcs[1].Request(0, req, false, func(_ sim.Time, rsp ht.Packet, err error) {
		gotErr = err
		if err == nil {
			t.Error("request to an isolated node completed")
		}
		if rsp.Cmd != 0 || rsp.Data != nil {
			t.Error("failed request carried a response payload")
		}
	}); err != nil {
		t.Fatal(err)
	}
	r.set.Run() // must terminate: the budget bounds the retry loop
	var ue *UnreachableError
	if !errors.As(gotErr, &ue) {
		t.Fatalf("err = %v, want *UnreachableError", gotErr)
	}
	if ue.Dst != 6 {
		t.Errorf("UnreachableError.Dst = %d, want 6", ue.Dst)
	}
	if r.rmcs[1].Retransmits != uint64(r.p.RetransmitBudget) {
		t.Errorf("Retransmits = %d, want the full budget %d", r.rmcs[1].Retransmits, r.p.RetransmitBudget)
	}
}

// TestNackStormBackoff: during a scheduled storm the client refuses all
// admissions; requests wait it out under the existing NACK backoff and
// complete when the window closes.
func TestNackStormBackoff(t *testing.T) {
	const stormEnd = 200 * 1_000_000 // 200us in ps
	r, _ := newFaultRig(t, 4, &faults.Plan{
		Seed:       1,
		NackStorms: []faults.NodeWindow{{Node: 1, Window: faults.Window{Start: 0, End: stormEnd}}},
	})
	req := lineRead(2, 0x41000000)

	var doneAt sim.Time
	completed := false
	if err := r.rmcs[1].Request(0, req, false, func(ts sim.Time, rsp ht.Packet, err error) {
		if err != nil {
			t.Errorf("request failed: %v", err)
		}
		doneAt, completed = ts, true
	}); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	if !completed {
		t.Fatal("request never completed after the storm")
	}
	if doneAt < stormEnd {
		t.Errorf("completed at %d, inside the storm window ending %d", doneAt, stormEnd)
	}
	if r.rmcs[1].StormNACKs == 0 {
		t.Error("storm refused nothing")
	}
	if r.rmcs[1].Retries == 0 {
		t.Error("storm NACKs did not go through the retry backoff")
	}
}

// TestStallServerDelaysService: a scheduled stall consumes the server's
// capacity; a request arriving during the window completes only after it.
func TestStallServerDelaysService(t *testing.T) {
	const stall = 500 * 1_000_000 // 500us in ps
	baseline := func(stalled bool) sim.Time {
		r, _ := newFaultRig(t, 4, &faults.Plan{Seed: 1, Drop: 0}) // empty plan: injector unused
		req := lineRead(2, 0x41000000)
		if stalled {
			r.rmcs[2].StallServer(0, stall)
		}
		var doneAt sim.Time
		if err := r.rmcs[1].Request(0, req, false, func(ts sim.Time, _ ht.Packet, err error) {
			if err != nil {
				t.Fatalf("request failed: %v", err)
			}
			doneAt = ts
		}); err != nil {
			t.Fatal(err)
		}
		r.set.Run()
		return doneAt
	}
	// The stall starts at t=0 but the request reaches the server a round
	// trip's front half later, so the observed delay is the stall minus
	// that arrival offset.
	clean, delayed := baseline(false), baseline(true)
	if got := delayed - clean; got <= stall*9/10 || got > stall {
		t.Errorf("stall delayed completion by %d, want just under %d", got, stall)
	}
	r, _ := newFaultRig(t, 2, &faults.Plan{Seed: 1})
	r.rmcs[1].StallServer(0, 1)
	if r.rmcs[1].Stalls != 1 {
		t.Errorf("Stalls = %d, want 1", r.rmcs[1].Stalls)
	}
}

// TestFaultFreeSignatureCompatible: without a plan the error argument is
// always nil — the old contract, now typed.
func TestFaultFreeSignatureCompatible(t *testing.T) {
	r := newRig(t, 4)
	req := lineRead(2, 0x41000000)
	if err := r.rmcs[1].Request(0, req, false, func(_ sim.Time, rsp ht.Packet, err error) {
		if err != nil {
			t.Errorf("fault-free request returned %v", err)
		}
		wantLine(t, rsp, ht.CmdRdResponse, 64)
	}); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
}
