package hnc

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/ht"
)

func mustBridge(t *testing.T, n addr.NodeID) *Bridge {
	t.Helper()
	b, err := NewBridge(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBridgeRejectsInvalidNode(t *testing.T) {
	if _, err := NewBridge(0); err == nil {
		t.Error("node 0 accepted")
	}
	if _, err := NewBridge(addr.MaxNode + 1); err == nil {
		t.Error("overlarge node accepted")
	}
}

func mustVerifier(t *testing.T, n addr.NodeID) *Verifier {
	t.Helper()
	v, err := NewVerifier(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewVerifierRejectsInvalidNode(t *testing.T) {
	if _, err := NewVerifier(0); err == nil {
		t.Error("node 0 accepted")
	}
	if _, err := NewVerifier(addr.MaxNode + 1); err == nil {
		t.Error("overlarge node accepted")
	}
}

// sealed builds f in a slot and seals it there, as a bridge does: the
// way to put a frame no bridge would build on the wire.
func sealed(f Frame) *Sealed {
	s := &Sealed{Frame: f}
	s.CRC = s.Frame.Checksum()
	return s
}

func TestPaperWalkthrough(t *testing.T) {
	// Figure 4 flow: node 1 issues a read to physical address
	// local 0x41000000 prefixed with node 3; node 3 clears the prefix
	// before the local replay.
	n1, n3 := mustBridge(t, 1), mustBridge(t, 3)
	v1, v3 := mustVerifier(t, 1), mustVerifier(t, 3)

	req := ht.Packet{Cmd: ht.CmdRdSized, SrcUnit: 2, SrcTag: 9, Addr: addr.Phys(0x41000000).WithNode(3), Count: 64}
	var s Sealed
	if err := n1.SealRequest(&s, &req); err != nil {
		t.Fatal(err)
	}
	if s.Frame.Src != 1 || s.Frame.Dst != 3 {
		t.Errorf("frame %v routed %d->%d, want 1->3", &s.Frame, s.Frame.Src, s.Frame.Dst)
	}

	var local ht.Packet
	if err := v3.Receive(&s, &local); err != nil {
		t.Fatal(err)
	}
	if local.Addr != addr.Phys(0x41000000) {
		t.Errorf("server saw %v, want prefix cleared", local.Addr)
	}
	if local.SrcTag != 9 || local.SrcUnit != 2 {
		t.Error("tag/unit not preserved across the bridge")
	}

	// The response travels back to node 1 and passes through unchanged.
	data := bytes.Repeat([]byte{0xAB}, 64)
	rsp := local.Response()
	rsp.Data = data
	var reply Sealed
	if err := n3.SealReply(&reply, s.Frame.Src, &rsp); err != nil {
		t.Fatal(err)
	}
	var got ht.Packet
	if err := v1.Receive(&reply, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cmd != ht.CmdRdResponse || !bytes.Equal(got.Data, data) || got.SrcTag != 9 {
		t.Errorf("response corrupted: %v", got)
	}
}

func TestOutboundRejections(t *testing.T) {
	b := mustBridge(t, 1)
	var s Sealed
	if err := b.SealRequest(&s, &ht.Packet{Cmd: ht.CmdRdResponse, Count: 0}); err == nil {
		t.Error("non-request bridged")
	}
	if err := b.SealRequest(&s, &ht.Packet{Cmd: ht.CmdRdSized, Addr: 0x1000, Count: 64}); err == nil {
		t.Error("local address bridged")
	}
	if err := b.SealRequest(&s, &ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(2), Count: 0}); err == nil {
		t.Error("invalid packet bridged")
	}
	// A refused packet writes nothing and takes no sequence number.
	if !reflect.DeepEqual(s, Sealed{}) {
		t.Errorf("refused packets left %v in the slot", &s.Frame)
	}
	if err := b.SealRequest(&s, &ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(2), Count: 64}); err != nil || s.Frame.Seq != 1 {
		t.Errorf("first frame after refusals: seq %d, %v; want seq 1", s.Frame.Seq, err)
	}
}

func TestLoopbackFrame(t *testing.T) {
	// Legal on the wire; the paper notes it never happens in practice.
	b, v := mustBridge(t, 5), mustVerifier(t, 5)
	var s Sealed
	if err := b.SealRequest(&s, &ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(5), Count: 64}); err != nil {
		t.Fatal(err)
	}
	if s.Frame.Dst != 5 {
		t.Errorf("loopback frame dst = %d", s.Frame.Dst)
	}
	var p ht.Packet
	if err := v.Receive(&s, &p); err != nil {
		t.Fatal(err)
	}
	if p.Addr != 0x100 {
		t.Errorf("loopback inbound addr = %v", p.Addr)
	}
}

func TestInboundRejections(t *testing.T) {
	v3 := mustVerifier(t, 3)
	var p ht.Packet
	// Misdelivered frame.
	s := sealed(Frame{Src: 1, Dst: 4, Seq: 1, Payload: ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1).WithNode(4), Count: 8}})
	if err := v3.Receive(s, &p); err == nil {
		t.Error("misdelivered frame accepted")
	}
	// Frame whose payload prefix disagrees with the destination.
	s = sealed(Frame{Src: 1, Dst: 3, Seq: 1, Payload: ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1).WithNode(4), Count: 8}})
	if err := v3.Receive(s, &p); err == nil {
		t.Error("prefix/destination mismatch accepted")
	}
	// Invalid src on the wire.
	s = sealed(Frame{Src: 0, Dst: 3, Seq: 1, Payload: ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1).WithNode(3), Count: 8}})
	if err := v3.Receive(s, &p); err == nil {
		t.Error("frame from node 0 accepted")
	}
}

func TestReplyRejectsRequests(t *testing.T) {
	b := mustBridge(t, 2)
	var s Sealed
	if err := b.SealReply(&s, 1, &ht.Packet{Cmd: ht.CmdRdSized, Addr: 0x1, Count: 8}); err == nil {
		t.Error("request passed as reply")
	}
	if err := b.SealReply(&s, 0, &ht.Packet{Cmd: ht.CmdTgtDone}); err == nil {
		t.Error("reply to node 0 accepted")
	}
	if err := b.SealReply(&s, addr.MaxNode+1, &ht.Packet{Cmd: ht.CmdTgtDone}); err == nil {
		t.Error("reply to an overlarge node accepted")
	}
	if err := b.SealReply(&s, 1, &ht.Packet{Cmd: ht.CmdRdResponse, Count: 64, Data: make([]byte, 8)}); err == nil {
		t.Error("invalid response bridged")
	}
	// A refused reply writes nothing and takes no sequence number.
	if !reflect.DeepEqual(s, Sealed{}) {
		t.Errorf("refused replies left %v in the slot", &s.Frame)
	}
	if err := b.SealReply(&s, 1, &ht.Packet{Cmd: ht.CmdTgtDone}); err != nil || s.Frame.Seq != 1 {
		t.Errorf("first reply after refusals: seq %d, %v; want seq 1", s.Frame.Seq, err)
	}
}

func TestWireBytes(t *testing.T) {
	f := Frame{Src: 1, Dst: 2, Payload: ht.Packet{Cmd: ht.CmdRdSized, Addr: 0x1, Count: 64}}
	if got := f.WireBytes(); got != HeaderBytes+8 {
		t.Errorf("WireBytes = %d", got)
	}
}

func TestBridgeRoundTripProperty(t *testing.T) {
	// For any valid (address, nodes) pair, sealing at src then receiving
	// at dst yields the original local address with metadata intact.
	f := func(raw uint64, srcN, dstN uint16, tag uint16) bool {
		src := addr.NodeID(srcN%100) + 1
		dst := addr.NodeID(dstN%100) + 1
		if src == dst {
			dst = src%100 + 1
			if src == dst {
				return true
			}
		}
		local := addr.Phys(raw % (1 << 30))
		bs, err1 := NewBridge(src)
		vd, err2 := NewVerifier(dst)
		if err1 != nil || err2 != nil {
			return false
		}
		req := ht.Packet{Cmd: ht.CmdRdSized, SrcTag: tag, Addr: local.WithNode(dst), Count: 64}
		var s Sealed
		if err := bs.SealRequest(&s, &req); err != nil {
			return false
		}
		var p ht.Packet
		if err := vd.Receive(&s, &p); err != nil {
			return false
		}
		return p.Addr == local && p.SrcTag == tag && s.Frame.Dst == dst && s.Frame.Src == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqMonotone(t *testing.T) {
	b := mustBridge(t, 1)
	var last uint64
	for i := 0; i < 5; i++ {
		var s Sealed
		if err := b.SealRequest(&s, &ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x40).WithNode(2), Count: 8}); err != nil {
			t.Fatal(err)
		}
		if s.Frame.Seq <= last {
			t.Fatalf("seq not increasing: %d after %d", s.Frame.Seq, last)
		}
		last = s.Frame.Seq
	}
}
