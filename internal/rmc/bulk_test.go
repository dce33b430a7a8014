package rmc

import (
	"bytes"
	"testing"

	"repro/internal/addr"
	"repro/internal/faults"
	"repro/internal/ht"
	"repro/internal/sim"
)

// fillPattern seeds n bytes at a on node's store with a position-derived
// pattern so misplaced frames are detectable.
func fillPattern(t *testing.T, r *rig, node addr.NodeID, a addr.Phys, n int, salt byte) []byte {
	t.Helper()
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i) ^ salt
	}
	if err := r.stores[node].WriteAt(a, want); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestBulkReadGather(t *testing.T) {
	r := newRig(t, 4)
	// Two discontiguous spans on node 2: 32 + 16 lines.
	wantA := fillPattern(t, r, 2, 0x41000000, 32*64, 0x00)
	wantB := fillPattern(t, r, 2, 0x52000000, 16*64, 0x5a)
	sink := make([]byte, 48*64)
	var doneAt sim.Time
	var doneErr error
	err := r.rmcs[1].RequestBulk(0, BulkRequest{
		Kind: BulkRead,
		Spans: []Span{
			{Start: addr.Phys(0x41000000).WithNode(2), Lines: 32},
			{Start: addr.Phys(0x52000000).WithNode(2), Lines: 16},
		},
		Data: sink,
		Done: func(ts sim.Time, err error) { doneAt, doneErr = ts, err },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	if doneErr != nil {
		t.Fatal(doneErr)
	}
	if doneAt == 0 {
		t.Fatal("burst never completed")
	}
	if !bytes.Equal(sink[:32*64], wantA) || !bytes.Equal(sink[32*64:], wantB) {
		t.Error("gathered bytes do not match the spans")
	}
	m := r.rmcs[1]
	if m.BulkBursts != 1 || m.BulkLines != 48 {
		t.Errorf("client counted %d bursts / %d lines, want 1 / 48", m.BulkBursts, m.BulkLines)
	}
	// 48 lines at the default 16 lines/frame is 2+1 frames.
	if m.BulkDataFrames != 3 {
		t.Errorf("client counted %d data frames, want 3", m.BulkDataFrames)
	}
}

func TestBulkWriteScatter(t *testing.T) {
	r := newRig(t, 4)
	payload := make([]byte, 40*64)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var doneErr error
	completed := false
	err := r.rmcs[1].RequestBulk(0, BulkRequest{
		Kind: BulkWrite,
		Spans: []Span{
			{Start: addr.Phys(0x10000000).WithNode(3), Lines: 8},
			{Start: addr.Phys(0x20000000).WithNode(3), Lines: 32},
		},
		Data: payload,
		Done: func(_ sim.Time, err error) { completed, doneErr = true, err },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	if !completed || doneErr != nil {
		t.Fatalf("completed=%v err=%v", completed, doneErr)
	}
	got := make([]byte, 40*64)
	if err := r.stores[3].ReadAt(0x10000000, got[:8*64]); err != nil {
		t.Fatal(err)
	}
	if err := r.stores[3].ReadAt(0x20000000, got[8*64:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("scattered bytes do not match the payload")
	}
}

// TestBulkScalarWriteOracle: one burst must leave the memory state of
// the same lines written one by one into the owner's store, and must be
// deterministically cheaper than 64 dependent scalar line writes.
func TestBulkScalarWriteOracle(t *testing.T) {
	payload := make([]byte, 64*64)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}

	// Scalar: 64 dependent single-line writes (each issued when the
	// previous completes, the pointer-chasing discipline). The scalar
	// path only times them, so the reference state is written line by
	// line into node 2's store.
	scalarRig := newRig(t, 4)
	var scalarDone sim.Time
	var issue func(i int, now sim.Time)
	issue = func(i int, now sim.Time) {
		if i == 64 {
			scalarDone = now
			return
		}
		if err := scalarRig.stores[2].WriteAt(addr.Phys(0x30000000+i*64), payload[i*64:(i+1)*64]); err != nil {
			t.Fatal(err)
		}
		pkt := ht.Packet{Cmd: ht.CmdWrSized, Addr: addr.Phys(0x30000000 + i*64).WithNode(2), Count: 64}
		if err := scalarRig.rmcs[1].Request(now, pkt, false, func(ts sim.Time, _ ht.Packet, err error) {
			if err != nil {
				t.Fatal(err)
			}
			issue(i+1, ts)
		}); err != nil {
			t.Fatal(err)
		}
	}
	issue(0, 0)
	scalarRig.set.Run()

	bulkRig := newRig(t, 4)
	var bulkDone sim.Time
	if err := bulkRig.rmcs[1].RequestBulk(0, BulkRequest{
		Kind:  BulkWrite,
		Spans: []Span{{Start: addr.Phys(0x30000000).WithNode(2), Lines: 64}},
		Data:  payload,
		Done: func(ts sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			bulkDone = ts
		},
	}); err != nil {
		t.Fatal(err)
	}
	bulkRig.set.Run()

	a := make([]byte, 64*64)
	b := make([]byte, 64*64)
	if err := scalarRig.stores[2].ReadAt(0x30000000, a); err != nil {
		t.Fatal(err)
	}
	if err := bulkRig.stores[2].ReadAt(0x30000000, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("scalar and bulk writes left different memory state")
	}
	if scalarDone == 0 || bulkDone == 0 {
		t.Fatalf("runs did not complete (scalar %d, bulk %d)", scalarDone, bulkDone)
	}
	if bulkDone*4 >= scalarDone {
		t.Errorf("4 KiB burst took %d ps vs %d ps for 64 scalar writes; want at least 4x cheaper", bulkDone, scalarDone)
	}
}

// TestBulkReadCheaperThanScalar is the acceptance criterion's shape: a
// 4 KiB columnar gather must beat 64 dependent scalar line reads.
func TestBulkReadCheaperThanScalar(t *testing.T) {
	scalarRig := newRig(t, 4)
	var scalarDone sim.Time
	var issue func(i int, now sim.Time)
	issue = func(i int, now sim.Time) {
		if i == 64 {
			scalarDone = now
			return
		}
		pkt := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x30000000 + i*64).WithNode(2), Count: 64}
		if err := scalarRig.rmcs[1].Request(now, pkt, false, func(ts sim.Time, _ ht.Packet, err error) {
			if err != nil {
				t.Fatal(err)
			}
			issue(i+1, ts)
		}); err != nil {
			t.Fatal(err)
		}
	}
	issue(0, 0)
	scalarRig.set.Run()

	bulkRig := newRig(t, 4)
	var bulkDone sim.Time
	if err := bulkRig.rmcs[1].RequestBulk(0, BulkRequest{
		Kind:  BulkRead,
		Spans: []Span{{Start: addr.Phys(0x30000000).WithNode(2), Lines: 64}},
		Done: func(ts sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			bulkDone = ts
		},
	}); err != nil {
		t.Fatal(err)
	}
	bulkRig.set.Run()

	if bulkDone*4 >= scalarDone {
		t.Errorf("4 KiB gather took %d ps vs %d ps for 64 scalar reads; want at least 4x cheaper", bulkDone, scalarDone)
	}
	t.Logf("scalar %d ps, bulk %d ps (%.1fx)", scalarDone, bulkDone, float64(scalarDone)/float64(bulkDone))
}

func TestBulkCopyNeverTransitsClient(t *testing.T) {
	r := newRig(t, 4)
	want := fillPattern(t, r, 2, 0x41000000, 32*64, 0x33)
	var doneErr error
	completed := false
	err := r.rmcs[1].RequestBulk(0, BulkRequest{
		Kind:    BulkCopy,
		Spans:   []Span{{Start: addr.Phys(0x41000000).WithNode(2), Lines: 32}},
		CopyDst: addr.Phys(0x00800000).WithNode(3),
		Done:    func(_ sim.Time, err error) { completed, doneErr = true, err },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	if !completed || doneErr != nil {
		t.Fatalf("completed=%v err=%v", completed, doneErr)
	}
	got := make([]byte, 32*64)
	if err := r.stores[3].ReadAt(0x00800000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("copied bytes do not match the source")
	}
	// The client hears exactly one frame — the destination's cumulative
	// ack. The payload went server-to-server.
	if got := r.rmcs[1].verif.Received; got != 1 {
		t.Errorf("client accepted %d frames, want 1 (the ack); DMA data must not transit the client", got)
	}
	if r.rmcs[1].BulkCopies != 1 {
		t.Errorf("BulkCopies = %d, want 1", r.rmcs[1].BulkCopies)
	}
}

func TestBulkCopySameNode(t *testing.T) {
	r := newRig(t, 4)
	want := fillPattern(t, r, 2, 0x41000000, 16*64, 0x77)
	completed := false
	err := r.rmcs[1].RequestBulk(0, BulkRequest{
		Kind:    BulkCopy,
		Spans:   []Span{{Start: addr.Phys(0x41000000).WithNode(2), Lines: 16}},
		CopyDst: addr.Phys(0x00400000).WithNode(2),
		Done: func(_ sim.Time, err error) {
			if err != nil {
				t.Fatal(err)
			}
			completed = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	if !completed {
		t.Fatal("same-node copy never completed")
	}
	got := make([]byte, 16*64)
	if err := r.stores[2].ReadAt(0x00400000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("same-node copy corrupted the data")
	}
}

func TestBulkRequestValidation(t *testing.T) {
	r := newRig(t, 4)
	m := r.rmcs[1]
	nop := func(sim.Time, error) {}
	cases := []struct {
		name string
		req  BulkRequest
	}{
		{"no done", BulkRequest{Kind: BulkRead, Spans: []Span{{Start: addr.Phys(0x1000).WithNode(2), Lines: 1}}}},
		{"no spans", BulkRequest{Kind: BulkRead, Done: nop}},
		{"zero lines", BulkRequest{Kind: BulkRead, Spans: []Span{{Start: addr.Phys(0x1000).WithNode(2)}}, Done: nop}},
		{"unaligned", BulkRequest{Kind: BulkRead, Spans: []Span{{Start: addr.Phys(0x1001).WithNode(2), Lines: 1}}, Done: nop}},
		{"local span", BulkRequest{Kind: BulkRead, Spans: []Span{{Start: 0x1000, Lines: 1}}, Done: nop}},
		{"own node", BulkRequest{Kind: BulkRead, Spans: []Span{{Start: addr.Phys(0x1000).WithNode(1), Lines: 1}}, Done: nop}},
		{"straddles nodes", BulkRequest{Kind: BulkRead, Spans: []Span{
			{Start: addr.Phys(0x1000).WithNode(2), Lines: 1},
			{Start: addr.Phys(0x1000).WithNode(3), Lines: 1},
		}, Done: nop}},
		{"over frame cap", BulkRequest{Kind: BulkRead, Spans: []Span{{Start: addr.Phys(0x1000).WithNode(2), Lines: 16*256 + 1}}, Done: nop}},
		{"short payload", BulkRequest{Kind: BulkWrite, Spans: []Span{{Start: addr.Phys(0x1000).WithNode(2), Lines: 2}}, Data: make([]byte, 64), Done: nop}},
		{"copy without dst", BulkRequest{Kind: BulkCopy, Spans: []Span{{Start: addr.Phys(0x1000).WithNode(2), Lines: 1}}, Done: nop}},
		{"unknown kind", BulkRequest{Spans: []Span{{Start: addr.Phys(0x1000).WithNode(2), Lines: 1}}, Done: nop}},
	}
	for _, tc := range cases {
		if err := m.RequestBulk(0, tc.req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if m.BulkBursts != 0 {
		t.Errorf("rejected requests counted %d bursts", m.BulkBursts)
	}
}

// A steady-state 4 KiB bulk gather — doorbell, burst service, pipelined
// data frames, reassembly, completion — must not allocate on a
// fault-free system, same discipline as the scalar round trip.
func TestBulkReadSteadyStateAllocs(t *testing.T) {
	r := newRig(t, 4)
	sink := make([]byte, 64*64)
	spans := []Span{{Start: addr.Phys(0x30000000).WithNode(3), Lines: 64}}
	done := func(_ sim.Time, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	issue := func() {
		if err := r.rmcs[1].RequestBulk(r.eng.Now(), BulkRequest{
			Kind:  BulkRead,
			Spans: spans,
			Data:  sink,
			Done:  done,
		}); err != nil {
			t.Fatal(err)
		}
		r.set.Run()
	}
	for i := 0; i < 16; i++ {
		issue()
	}
	if avg := testing.AllocsPerRun(500, issue); avg != 0 {
		t.Errorf("bulk read round trip allocates %.2f/op, want 0", avg)
	}
}

// TestBulkChaosTailRetransmit: under a seeded drop plan, a dropped
// burst frame retransmits only itself — every burst still completes
// with intact data, nothing is abandoned, and the burst is never
// reissued wholesale (BulkBursts counts each burst exactly once).
func TestBulkChaosTailRetransmit(t *testing.T) {
	r, inj := newFaultRig(t, 4, &faults.Plan{Seed: 7, Drop: 0.12})
	want := fillPattern(t, r, 2, 0x41000000, 64*64, 0x24)

	const bursts = 12
	completions := 0
	sinks := make([][]byte, bursts)
	for i := 0; i < bursts; i++ {
		sinks[i] = make([]byte, 64*64)
		if err := r.rmcs[1].RequestBulk(sim.Time(i)*8*r.p.RetransmitTimeout, BulkRequest{
			Kind:  BulkRead,
			Spans: []Span{{Start: addr.Phys(0x41000000).WithNode(2), Lines: 64}},
			Data:  sinks[i],
			Done: func(_ sim.Time, err error) {
				if err != nil {
					t.Errorf("burst failed under drop rate below the budget: %v", err)
					return
				}
				completions++
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.set.Run()
	if completions != bursts {
		t.Fatalf("%d of %d bursts completed", completions, bursts)
	}
	for i, sink := range sinks {
		if !bytes.Equal(sink, want) {
			t.Errorf("burst %d reassembled wrong data under faults", i)
		}
	}
	if inj.Drops == 0 {
		t.Fatal("drop rate 0.12 injected nothing; test is vacuous")
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
		t.Errorf("%d bursts abandoned below the retry budget", got)
	}
	if got := r.rmcs[1].BulkBursts; got != bursts {
		t.Errorf("client counted %d bursts for %d requests; a retransmit must never reissue the burst", got, bursts)
	}
}

// TestBulkChaosWrite: write bursts under drops — cumulative ack and all
// — land every byte exactly once.
func TestBulkChaosWrite(t *testing.T) {
	r, inj := newFaultRig(t, 4, &faults.Plan{Seed: 19, Drop: 0.1})
	payload := make([]byte, 48*64)
	for i := range payload {
		payload[i] = byte(i*3 + 1)
	}
	completed := false
	if err := r.rmcs[1].RequestBulk(0, BulkRequest{
		Kind:  BulkWrite,
		Spans: []Span{{Start: addr.Phys(0x26000000).WithNode(4), Lines: 48}},
		Data:  payload,
		Done: func(_ sim.Time, err error) {
			if err != nil {
				t.Errorf("write burst failed: %v", err)
				return
			}
			completed = true
		},
	}); err != nil {
		t.Fatal(err)
	}
	r.set.Run()
	if !completed {
		t.Fatal("write burst never completed")
	}
	got := make([]byte, 48*64)
	if err := r.stores[4].ReadAt(0x26000000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("faulted write burst corrupted the payload")
	}
	_ = inj
}

// Bulk metric families register only on first use: an RMC that never
// issues a burst must not mention them in a snapshot.
func TestBulkMetricsGatedOnUse(t *testing.T) {
	quiet := newRig(t, 2)
	pkt := ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1000).WithNode(2), Count: 64}
	if err := quiet.rmcs[1].Request(0, pkt, false, func(sim.Time, ht.Packet, error) {}); err != nil {
		t.Fatal(err)
	}
	quiet.set.Run()
	if snap := quiet.eng.Metrics().Snapshot().JSON(); bytes.Contains([]byte(snap), []byte("ncdsm_rmc_bulk")) {
		t.Error("bulk families appear in a snapshot without bulk traffic")
	}

	busy := newRig(t, 2)
	if err := busy.rmcs[1].RequestBulk(0, BulkRequest{
		Kind:  BulkRead,
		Spans: []Span{{Start: addr.Phys(0x1000).WithNode(2), Lines: 4}},
		Done:  func(sim.Time, error) {},
	}); err != nil {
		t.Fatal(err)
	}
	busy.set.Run()
	if snap := busy.eng.Metrics().Snapshot().JSON(); !bytes.Contains([]byte(snap), []byte("ncdsm_rmc_bulk_bursts_total")) {
		t.Error("bulk families missing after bulk traffic")
	}
}
