package ht

import (
	"testing"

	"repro/internal/addr"
)

func TestCommandClassification(t *testing.T) {
	cases := []struct {
		cmd      Command
		req, rsp bool
	}{
		{CmdRdSized, true, false},
		{CmdWrSized, true, false},
		{CmdRdResponse, false, true},
		{CmdTgtDone, false, true},
	}
	for _, c := range cases {
		if c.cmd.IsRequest() != c.req || c.cmd.IsResponse() != c.rsp {
			t.Errorf("%v: IsRequest=%v IsResponse=%v", c.cmd, c.cmd.IsRequest(), c.cmd.IsResponse())
		}
	}
	if Command(99).String() == "" {
		t.Error("unknown command should still render")
	}
}

func TestResponseConstruction(t *testing.T) {
	rd := Packet{Cmd: CmdRdSized, SrcUnit: 3, SrcTag: 42, Addr: 0x1000, Count: 64}
	rsp := rd.Response()
	if rsp.Cmd != CmdRdResponse || rsp.SrcUnit != 3 || rsp.SrcTag != 42 || rsp.Count != 64 || rsp.Data != nil {
		t.Errorf("read response malformed: %v", rsp)
	}
	if err := rsp.Validate(); err != nil {
		t.Errorf("read response invalid: %v", err)
	}

	wr := Packet{Cmd: CmdWrSized, SrcUnit: 1, SrcTag: 7, Addr: 0x2000, Count: 8}
	ack := wr.Response()
	if ack.Cmd != CmdTgtDone || ack.SrcTag != 7 {
		t.Errorf("write ack malformed: %v", ack)
	}
}

func TestResponseOnResponsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Response on a response did not panic")
		}
	}()
	Packet{Cmd: CmdTgtDone}.Response()
}

func TestValidate(t *testing.T) {
	good := []Packet{
		{Cmd: CmdRdSized, SrcUnit: 0, Addr: 0x100, Count: 64},
		// A scalar line write and read response carry no bytes.
		{Cmd: CmdWrSized, Addr: 0x100, Count: 64},
		{Cmd: CmdRdResponse, Addr: 0x100, Count: 64},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("valid packet %d rejected: %v", i, err)
		}
	}
	bad := []Packet{
		{Cmd: Command(0)},
		{Cmd: CmdRdSized, SrcUnit: MaxUnits, Addr: 0x100, Count: 64},
		{Cmd: CmdRdSized, Addr: 0x100, Count: 0},
		{Cmd: CmdRdSized, Addr: addr.Phys(1) << addr.TotalBits, Count: 64},
		{Cmd: CmdWrSized, Addr: 0x100, Count: 64, Data: make([]byte, 8)},
		{Cmd: CmdRdResponse, Count: 64, Data: make([]byte, 8)},
		{Cmd: CmdRdSized, Addr: 0x100, Count: 64, Posted: true},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid packet %d accepted: %v", i, p)
		}
	}
}

func TestFlitBytes(t *testing.T) {
	p := Packet{Cmd: CmdRdSized, Addr: 0x0, Count: 64}
	if got := p.FlitBytes(); got != 8 {
		t.Errorf("header-only packet = %d bytes, want 8", got)
	}
	p.Data = make([]byte, 64)
	if got := p.FlitBytes(); got != 72 {
		t.Errorf("64B payload packet = %d bytes, want 72", got)
	}
	p.Data = make([]byte, 5)
	if got := p.FlitBytes(); got != 16 {
		t.Errorf("5B payload packet = %d bytes, want 16 (4B granularity)", got)
	}
	// A payload-less line write or read response takes the wire as if
	// its Count bytes rode along.
	for _, cmd := range []Command{CmdWrSized, CmdRdResponse} {
		p := Packet{Cmd: cmd, Addr: 0x40, Count: 64}
		bare := p.FlitBytes()
		p.Data = make([]byte, 64)
		if withData := p.FlitBytes(); bare != 72 || withData != 72 {
			t.Errorf("%v of count 64: %d flit bytes bare, %d with 64 B of data; want 72 both", cmd, bare, withData)
		}
	}
}

func TestBuildNodeTable(t *testing.T) {
	// A node's routing table is its memory map: the BAR comparison that
	// picks an on-board controller or the RMC. 4 sockets × 4 GB, 16-node
	// cluster — the prototype.
	rt, err := addr.NewMemMap(1, 16, 16<<30)
	if err != nil {
		t.Fatal(err)
	}
	// Local address in the second socket's range.
	if tg, err := rt.Route(addr.Phys(5 << 30)); err != nil || tg != addr.TargetLocalMC {
		t.Errorf("Route(5GB) = %v, %v; want %v", tg, err, addr.TargetLocalMC)
	}
	// Any prefixed address goes to the RMC.
	if tg, err := rt.Route(addr.Phys(0x100).WithNode(13)); err != nil || tg != addr.TargetRMC {
		t.Errorf("prefixed route = %v, %v; want %v", tg, err, addr.TargetRMC)
	}
	// Address beyond the cluster is unclaimed.
	if _, err := rt.Route(addr.Phys(0x100).WithNode(17)); err == nil {
		t.Error("address beyond cluster claimed")
	}
}
