package rmc

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
	"repro/internal/sim"
)

// A steady-state remote round trip — admit, bridge, seal, fabric, serve,
// memory access, sealed reply, verify, complete — must not allocate on a
// fault-free system: every continuation is a pooled op with prebound
// callbacks, and both frames ride in the client op's send ops. This is
// the end-to-end tripwire for the whole reified hot path (rmc + hnc +
// sim).
func TestRemoteRoundTripSteadyStateAllocs(t *testing.T) {
	r := newRig(t, 4)
	rd := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1000).WithNode(3), Count: 64}
	var gotCmd ht.Command
	done := func(_ sim.Time, rsp ht.Packet, _ error) { gotCmd = rsp.Cmd }
	issue := func() {
		if err := r.rmcs[1].Request(r.eng.Now(), rd, false, done); err != nil {
			t.Fatal(err)
		}
		r.set.Run()
	}
	// Warm every pool on the path: ops, verifier windows, resource and
	// engine heaps.
	for i := 0; i < 16; i++ {
		issue()
	}
	if avg := testing.AllocsPerRun(500, issue); avg != 0 {
		t.Errorf("remote read round trip allocates %.2f/op, want 0", avg)
	}
	if gotCmd != ht.CmdRdResponse {
		t.Errorf("round trip answered %v", gotCmd)
	}
}

func TestRemoteWriteSteadyStateAllocs(t *testing.T) {
	r := newRig(t, 4)
	var gotCmd ht.Command
	done := func(_ sim.Time, rsp ht.Packet, _ error) { gotCmd = rsp.Cmd }
	// A payload-less line write, exactly as the cluster layer issues it.
	wr := ht.Packet{Cmd: ht.CmdWrSized, Addr: addr.Phys(0x2000).WithNode(3), Count: 64}
	issue := func() {
		if err := r.rmcs[1].Request(r.eng.Now(), wr, false, done); err != nil {
			t.Fatal(err)
		}
		r.set.Run()
	}
	for i := 0; i < 16; i++ {
		issue()
	}
	if avg := testing.AllocsPerRun(500, issue); avg != 0 {
		t.Errorf("remote write round trip allocates %.2f/op, want 0", avg)
	}
	if gotCmd != ht.CmdTgtDone {
		t.Errorf("write answered %v", gotCmd)
	}
}
