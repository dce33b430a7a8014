package cluster

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/rmc"
	"repro/internal/sim"
)

func mustIssueBulk(t *testing.T, n *Node, now sim.Time, req rmc.BulkRequest) {
	t.Helper()
	if err := n.IssueBulk(now, req); err != nil {
		t.Fatal(err)
	}
}

func TestIssueBulkLocalRead(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	want := make([]byte, 16*64)
	for i := range want {
		want[i] = byte(i + 3)
	}
	if err := n.Store().WriteAt(0x4000, want); err != nil {
		t.Fatal(err)
	}
	sink := make([]byte, 16*64)
	var doneAt sim.Time
	mustIssueBulk(t, n, 0, rmc.BulkRequest{
		Kind:  rmc.BulkRead,
		Spans: []rmc.Span{{Start: 0x4000, Lines: 16}},
		Data:  sink,
		Done: func(ts sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			doneAt = ts
		},
	})
	c.Set().Run()
	if !bytes.Equal(sink, want) {
		t.Error("local bulk read returned wrong bytes")
	}
	// 16 lines through one controller: at least 16 occupancy slots.
	p := c.p
	if doneAt < 16*p.DRAMOccupancy {
		t.Errorf("16-line local burst finished at %d ps, faster than the bank allows", doneAt)
	}
	if n.LocalOps != 16 || n.RemoteOps != 0 {
		t.Errorf("op mix local=%d remote=%d, want 16/0", n.LocalOps, n.RemoteOps)
	}
}

func TestIssueBulkRemoteRoundTrip(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	want := make([]byte, 32*64)
	for i := range want {
		want[i] = byte(i ^ 0x41)
	}
	st, err := c.Store(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteAt(0x20000, want); err != nil {
		t.Fatal(err)
	}
	sink := make([]byte, 32*64)
	completed := false
	mustIssueBulk(t, n, 0, rmc.BulkRequest{
		Kind:  rmc.BulkRead,
		Spans: []rmc.Span{{Start: addr.Phys(0x20000).WithNode(2), Lines: 32}},
		Data:  sink,
		Done: func(_ sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			completed = true
		},
	})
	c.Set().Run()
	if !completed {
		t.Fatal("remote burst never completed")
	}
	if !bytes.Equal(sink, want) {
		t.Error("remote bulk read returned wrong bytes")
	}
	if n.RemoteOps != 32 {
		t.Errorf("RemoteOps = %d, want 32", n.RemoteOps)
	}
	if n.RMC().BulkBursts != 1 {
		t.Errorf("BulkBursts = %d, want 1", n.RMC().BulkBursts)
	}
}

func TestIssueBulkCopyDecomposition(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	want := make([]byte, 8*64)
	for i := range want {
		want[i] = byte(i * 5)
	}
	if err := n.Store().WriteAt(0x8000, want); err != nil {
		t.Fatal(err)
	}

	// Local source, local destination: pure controller traffic.
	localDone := false
	mustIssueBulk(t, n, 0, rmc.BulkRequest{
		Kind:    rmc.BulkCopy,
		Spans:   []rmc.Span{{Start: 0x8000, Lines: 8}},
		CopyDst: 0x10000,
		Done: func(_ sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			localDone = true
		},
	})
	c.Set().Run()
	got := make([]byte, 8*64)
	if err := n.Store().ReadAt(0x10000, got); err != nil {
		t.Fatal(err)
	}
	if !localDone || !bytes.Equal(got, want) {
		t.Error("local-to-local copy failed")
	}

	// Local source, remote destination: decomposes into a write burst.
	remoteDone := false
	mustIssueBulk(t, n, c.Set().Now(), rmc.BulkRequest{
		Kind:    rmc.BulkCopy,
		Spans:   []rmc.Span{{Start: 0x8000, Lines: 8}},
		CopyDst: addr.Phys(0x30000).WithNode(3),
		Done: func(_ sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			remoteDone = true
		},
	})
	c.Set().Run()
	st, err := c.Store(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ReadAt(0x30000, got); err != nil {
		t.Fatal(err)
	}
	if !remoteDone || !bytes.Equal(got, want) {
		t.Error("local-to-remote copy failed")
	}

	// Remote source, remote destination: forwarded as a DMA burst.
	dmaDone := false
	mustIssueBulk(t, n, c.Set().Now(), rmc.BulkRequest{
		Kind:    rmc.BulkCopy,
		Spans:   []rmc.Span{{Start: addr.Phys(0x30000).WithNode(3), Lines: 8}},
		CopyDst: addr.Phys(0x48000).WithNode(4),
		Done: func(_ sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			dmaDone = true
		},
	})
	c.Set().Run()
	st4, err := c.Store(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st4.ReadAt(0x48000, got); err != nil {
		t.Fatal(err)
	}
	if !dmaDone || !bytes.Equal(got, want) {
		t.Error("remote-to-remote copy failed")
	}
}

// denyAll is a protection hook refusing every remote access.
type denyAll struct{}

func (denyAll) Allowed(addr.NodeID, addr.Range) bool { return false }

// TestIssueBulkWriteAborted: a write burst the serving node's protection
// check refuses completes once, with *rmc.AbortError naming the server,
// and leaves nothing scheduled. The server sends its abort ack at its
// service instant, past the time of the frame that triggered it: the one
// intent a shard records in its own future, which the barrier holds
// until the replay horizon passes it.
func TestIssueBulkWriteAborted(t *testing.T) {
	c := build(t)
	srv := c.MustNode(2).RMC()
	srv.SetProtection(denyAll{})
	n := c.MustNode(1)
	const lines = 64 // four data frames at the default geometry
	calls := 0
	var doneErr error
	mustIssueBulk(t, n, 0, rmc.BulkRequest{
		Kind:  rmc.BulkWrite,
		Spans: []rmc.Span{{Start: addr.Phys(0x20000).WithNode(2), Lines: lines}},
		Data:  make([]byte, lines*64),
		Done:  func(_ sim.Time, err error) { calls, doneErr = calls+1, err },
	})
	c.Set().Run()
	var abort *rmc.AbortError
	if calls != 1 || !errors.As(doneErr, &abort) || abort.Dst != 2 {
		t.Fatalf("burst completed %d times with %v, want once with node 2's *rmc.AbortError", calls, doneErr)
	}
	if srv.Aborted != 1 || c.Set().Pending() != 0 {
		t.Errorf("server aborted %d bursts, %d events pending; want 1 and 0", srv.Aborted, c.Set().Pending())
	}
}

func TestIssueBulkValidation(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	nop := func(sim.Time, error) {}
	if err := n.IssueBulk(0, rmc.BulkRequest{Kind: rmc.BulkRead, Spans: []rmc.Span{{Start: 0x1000, Lines: 1}}}); err == nil {
		t.Error("missing Done accepted")
	}
	if err := n.IssueBulk(0, rmc.BulkRequest{Kind: rmc.BulkRead, Done: nop}); err == nil {
		t.Error("empty spans accepted")
	}
	if err := n.IssueBulk(0, rmc.BulkRequest{Kind: rmc.BulkRead, Spans: []rmc.Span{
		{Start: 0x1000, Lines: 1},
		{Start: addr.Phys(0x1000).WithNode(2), Lines: 1},
	}, Done: nop}); err == nil {
		t.Error("straddling spans accepted")
	}
	if err := n.IssueBulk(0, rmc.BulkRequest{Kind: rmc.BulkRead, Spans: []rmc.Span{{Start: 0x1001, Lines: 1}}, Done: nop}); err == nil {
		t.Error("unaligned local span accepted")
	}
}
