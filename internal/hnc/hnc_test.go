package hnc

import (
	"bytes"
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

func TestPaperWalkthrough(t *testing.T) {
	// Figure 4 flow: node 1 issues a read to physical address
	// local 0x41000000 prefixed with node 3; node 3's bridge clears the
	// prefix before the local replay.
	n1, n3 := mustBridge(t, 1), mustBridge(t, 3)

	req := ht.Packet{Cmd: ht.CmdRdSized, SrcUnit: 2, SrcTag: 9, Addr: addr.Phys(0x41000000).WithNode(3), Count: 64}
	frame, err := n1.Outbound(req)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Src != 1 || frame.Dst != 3 {
		t.Errorf("frame %v routed %d->%d, want 1->3", frame, frame.Src, frame.Dst)
	}

	local, err := n3.Inbound(&frame)
	if err != nil {
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
	reply, err := n3.Reply(frame.Src, local.Response(data))
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := n1.Inbound(&reply)
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Cmd != ht.CmdRdResponse || !bytes.Equal(rsp.Data, data) || rsp.SrcTag != 9 {
		t.Errorf("response corrupted: %v", rsp)
	}
}

func TestOutboundRejections(t *testing.T) {
	b := mustBridge(t, 1)
	if _, err := b.Outbound(ht.Packet{Cmd: ht.CmdRdResponse, Count: 0}); err == nil {
		t.Error("non-request bridged")
	}
	if _, err := b.Outbound(ht.Packet{Cmd: ht.CmdRdSized, Addr: 0x1000, Count: 64}); err == nil {
		t.Error("local address bridged")
	}
	if _, err := b.Outbound(ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(2), Count: 0}); err == nil {
		t.Error("invalid packet bridged")
	}
}

func TestLoopbackFrame(t *testing.T) {
	// Legal on the wire; the paper notes it never happens in practice.
	b := mustBridge(t, 5)
	f, err := b.Outbound(ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x100).WithNode(5), Count: 64})
	if err != nil {
		t.Fatal(err)
	}
	if f.Dst != 5 {
		t.Errorf("loopback frame dst = %d", f.Dst)
	}
	p, err := b.Inbound(&f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != 0x100 {
		t.Errorf("loopback inbound addr = %v", p.Addr)
	}
}

func TestInboundRejections(t *testing.T) {
	b3 := mustBridge(t, 3)
	// Misdelivered frame.
	f := Frame{Src: 1, Dst: 4, Payload: ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1).WithNode(4), Count: 8}}
	if _, err := b3.Inbound(&f); err == nil {
		t.Error("misdelivered frame accepted")
	}
	// Frame whose payload prefix disagrees with the destination.
	f = Frame{Src: 1, Dst: 3, Payload: ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1).WithNode(4), Count: 8}}
	if _, err := b3.Inbound(&f); err == nil {
		t.Error("prefix/destination mismatch accepted")
	}
	// Invalid src on the wire.
	f = Frame{Src: 0, Dst: 3, Payload: ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x1).WithNode(3), Count: 8}}
	if _, err := b3.Inbound(&f); err == nil {
		t.Error("frame from node 0 accepted")
	}
}

func TestReplyRejectsRequests(t *testing.T) {
	b := mustBridge(t, 2)
	if _, err := b.Reply(1, ht.Packet{Cmd: ht.CmdRdSized, Addr: 0x1, Count: 8}); err == nil {
		t.Error("request passed as reply")
	}
	if _, err := b.Reply(0, ht.Packet{Cmd: ht.CmdTgtDone}); err == nil {
		t.Error("reply to node 0 accepted")
	}
}

func TestWireBytes(t *testing.T) {
	f := Frame{Src: 1, Dst: 2, Payload: ht.Packet{Cmd: ht.CmdRdSized, Addr: 0x1, Count: 64}}
	if got := f.WireBytes(); got != HeaderBytes+8 {
		t.Errorf("WireBytes = %d", got)
	}
}

func TestBridgeRoundTripProperty(t *testing.T) {
	// For any valid (address, nodes) pair, Outbound at src then Inbound at
	// dst yields the original local address with metadata intact.
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
		bd, err2 := NewBridge(dst)
		if err1 != nil || err2 != nil {
			return false
		}
		req := ht.Packet{Cmd: ht.CmdRdSized, SrcTag: tag, Addr: local.WithNode(dst), Count: 64}
		fr, err := bs.Outbound(req)
		if err != nil {
			return false
		}
		p, err := bd.Inbound(&fr)
		if err != nil {
			return false
		}
		return p.Addr == local && p.SrcTag == tag && fr.Dst == dst && fr.Src == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqMonotone(t *testing.T) {
	b := mustBridge(t, 1)
	var last uint64
	for i := 0; i < 5; i++ {
		f, err := b.Outbound(ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x40).WithNode(2), Count: 8})
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq <= last {
			t.Fatalf("seq not increasing: %d after %d", f.Seq, last)
		}
		last = f.Seq
	}
}
