package hnc

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
)

// One pooled frame round trip — a request built and sealed in its slot,
// received and decapsulated there, and its reply sealed and accepted the
// same way — must not allocate once the peers are known: the checksum's
// header words stay in registers, and the bridges and the verifiers only
// advance existing per-peer slots. A read (no request payload, a line of
// reply data) and a write (a line of request data, a bare TgtDone)
// cover both payload shapes on both legs. This is the regression
// tripwire for the RMC fast path's per-frame cost.
func TestSealVerifyRoundTripAllocs(t *testing.T) {
	client, server := mustBridge(t, 1), mustBridge(t, 3)
	vc, vs := mustVerifier(t, 1), mustVerifier(t, 3)
	line := make([]byte, 64)
	for _, tc := range []struct {
		name string
		req  ht.Packet
		rsp  ht.Packet
	}{
		{"read", ht.Packet{Cmd: ht.CmdRdSized, SrcTag: 1, Addr: addr.Phys(0x1000).WithNode(3), Count: 64},
			ht.Packet{Cmd: ht.CmdRdResponse, SrcTag: 1, Addr: 0x1000, Count: 64, Data: line}},
		{"write", ht.Packet{Cmd: ht.CmdWrSized, SrcTag: 2, Addr: addr.Phys(0x2000).WithNode(3), Count: 64, Data: line},
			ht.Packet{Cmd: ht.CmdTgtDone, SrcTag: 2, Addr: 0x2000}},
	} {
		var req, rsp Sealed
		var local ht.Packet
		request := func() {
			if err := client.SealRequest(&req, &tc.req); err != nil {
				t.Fatal(err)
			}
			if err := vs.Receive(&req, &local); err != nil {
				t.Fatal(err)
			}
		}
		reply := func() {
			if err := server.SealReply(&rsp, 1, &tc.rsp); err != nil {
				t.Fatal(err)
			}
			if err := vc.Accept(&rsp); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the per-peer sequence slots.
		for i := 0; i < 8; i++ {
			request()
			reply()
		}
		if avg := testing.AllocsPerRun(1000, request); avg != 0 {
			t.Errorf("%s request: seal and receive allocate %.2f/op, want 0", tc.name, avg)
		}
		if avg := testing.AllocsPerRun(1000, reply); avg != 0 {
			t.Errorf("%s reply: seal and accept allocate %.2f/op, want 0", tc.name, avg)
		}
	}
	if vs.Gaps+vs.Regressions+vc.Gaps+vc.Regressions != 0 {
		t.Errorf("round trips counted sequence anomalies: %+v, %+v", countersOf(vs), countersOf(vc))
	}
}

// First contact with a peer claims a slot in a table that doubles past
// half full, so a bridge sending to 1,000 new destinations, or a
// verifier hearing from 1,000 new sources, allocates the table's nine
// sizes (8 to 2,048 slots), not one entry per peer.
func TestFirstContactAllocs(t *testing.T) {
	const peers, bound = 1000, 20
	ids := make([]addr.NodeID, peers)
	for i := range ids {
		ids[i] = addr.NodeID(1 + i*(addr.MaxNode-1)/(peers-1))
	}
	if avg := testing.AllocsPerRun(5, func() {
		b, err := NewBridge(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			b.nextSeq(id)
		}
	}); avg > bound {
		t.Errorf("a bridge's first contact with %d peers allocates %.0f times, want at most %d", peers, avg, bound)
	}
	if avg := testing.AllocsPerRun(5, func() {
		v := mustVerifier(t, 1)
		for _, id := range ids {
			s := Sealed{Frame: Frame{Src: id, Dst: 1, Seq: 1, Payload: ht.Packet{Cmd: ht.CmdTgtDone}}}
			s.CRC = s.Frame.Checksum()
			if err := v.Accept(&s); err != nil {
				t.Fatal(err)
			}
		}
	}); avg > bound {
		t.Errorf("a verifier's first contact with %d peers allocates %.0f times, want at most %d", peers, avg, bound)
	}
}

// Checksum over a 4 KiB payload — a bulk data frame — must not allocate:
// the header words never leave registers and the payload is already on
// the heap when it reaches hash/crc32.
func TestChecksumAllocs(t *testing.T) {
	f := Frame{Src: 1, Dst: 3, Seq: 9, Payload: ht.Packet{Cmd: ht.CmdWrSized, Addr: addr.Phys(0x1000).WithNode(3), Count: 4096, Data: make([]byte, 4096)}}
	var sink uint32
	if avg := testing.AllocsPerRun(1000, func() { sink ^= f.Checksum() }); avg != 0 {
		t.Errorf("4 KiB Checksum allocates %.2f/op, want 0", avg)
	}
	_ = sink
}
