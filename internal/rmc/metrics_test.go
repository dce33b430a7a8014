package rmc

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestMetricsInstrumentation drives one remote read and checks the
// engine registry saw it: request/forward/serve counters, HNC frame
// accounting, and the round-trip latency histogram.
func TestMetricsInstrumentation(t *testing.T) {
	r := newRig(t, 4)
	req := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1000).WithNode(2), Count: 64}
	if err := r.rmcs[1].Request(0, req, false, func(sim.Time, ht.Packet, error) {}); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	snap := r.eng.Metrics().Snapshot()
	val := func(name string, ls metrics.Labels) float64 {
		v, _ := snap.Value(name, ls)
		return v
	}

	n1 := metrics.L("node", "1")
	n2 := metrics.L("node", "2")
	if got := val(metrics.FamRMCRequests, n1); got != 1 {
		t.Errorf("node 1 requests = %v, want 1", got)
	}
	if got := val(metrics.FamRMCForwarded, n1); got != 1 {
		t.Errorf("node 1 forwarded = %v, want 1", got)
	}
	if got := val(metrics.FamRMCServedLocal, n2); got != 1 {
		t.Errorf("node 2 served = %v, want 1", got)
	}
	// The request frame lands at node 2's verifier, the reply at node 1's.
	if got := val(metrics.FamHNCFrames, n2); got != 1 {
		t.Errorf("node 2 HNC frames = %v, want 1", got)
	}
	if got := val(metrics.FamHNCFrames, n1); got != 1 {
		t.Errorf("node 1 HNC frames = %v, want 1", got)
	}
	if got := snap.Total(metrics.FamHNCCRCFailures); got != 0 {
		t.Errorf("CRC failures = %v on a clean fabric", got)
	}
	// One observation in node 1's latency histogram.
	f := snap.Family(metrics.FamRMCLatency)
	if f == nil {
		t.Fatal("latency family missing")
	}
	if got := val(metrics.FamRMCLatency, n1); got != 1 {
		t.Errorf("node 1 latency observations = %v, want 1", got)
	}
}
