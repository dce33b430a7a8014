// Package ht models the HyperTransport transaction layer used inside one
// node: the packet vocabulary processors and devices exchange (sized
// reads/writes and their responses) and unit identifiers. The BAR
// comparison that picks a local controller or the RMC is the node's
// memory map (addr.MemMap).
//
// HyperTransport proper addresses at most 32 devices; inter-node traffic
// therefore travels on the High Node Count extension (package hnc), and
// the RMC bridges between the two, as the prototype's FPGA does.
package ht

import (
	"fmt"

	"repro/internal/addr"
)

// Command is a HyperTransport packet command.
type Command uint8

// The subset of HT commands the memory path uses.
const (
	// CmdRdSized requests a sized (byte/doubleword) read.
	CmdRdSized Command = iota + 1
	// CmdWrSized carries a sized posted/non-posted write.
	CmdWrSized
	// CmdRdResponse returns read data to the requester.
	CmdRdResponse
	// CmdTgtDone acknowledges completion of a non-posted write.
	CmdTgtDone
	// CmdTgtAbort signals that the target refused the transaction —
	// HyperTransport's Target Abort, used by the RMC's protection check
	// when a node touches memory never granted to it.
	CmdTgtAbort
)

// String names the command mnemonic.
func (c Command) String() string {
	switch c {
	case CmdRdSized:
		return "RdSized"
	case CmdWrSized:
		return "WrSized"
	case CmdRdResponse:
		return "RdResponse"
	case CmdTgtDone:
		return "TgtDone"
	case CmdTgtAbort:
		return "TgtAbort"
	case CmdBulkRd:
		return "BulkRd"
	case CmdBulkWr:
		return "BulkWr"
	case CmdBulkCopy:
		return "BulkCopy"
	default:
		return fmt.Sprintf("Command(%d)", uint8(c))
	}
}

// IsRequest reports whether the command opens a transaction. The bulk
// commands count: they route by Addr and the bridge zeroes their node
// prefix exactly like the sized subset.
func (c Command) IsRequest() bool {
	switch c {
	case CmdRdSized, CmdWrSized, CmdBulkRd, CmdBulkWr, CmdBulkCopy:
		return true
	}
	return false
}

// IsResponse reports whether the command closes a transaction.
func (c Command) IsResponse() bool {
	return c == CmdRdResponse || c == CmdTgtDone || c == CmdTgtAbort
}

// UnitID identifies an HT unit within one node's chain (max 32 units —
// the limitation that forces the HNC extension for inter-node traffic).
type UnitID uint8

// MaxUnits is HyperTransport's per-chain device limit.
const MaxUnits = 32

// Packet is one HT transaction-layer packet. Data is carried by
// reference. A scalar line read or write and its response carry none:
// the RMC times the access, the bytes stay in the functional store, and
// FlitBytes still prices Count bytes on the wire.
type Packet struct {
	Cmd Command
	// SrcUnit is the issuing unit; responses are routed back to it.
	SrcUnit UnitID
	// SrcTag matches a response to its outstanding request (per-unit).
	SrcTag uint16
	// Addr is the target physical address (requests only).
	Addr addr.Phys
	// Count is the transfer size in bytes (requests only).
	Count int
	// Posted marks a write that expects no TgtDone.
	Posted bool
	// Data carries write payload, read response data or a bulk
	// descriptor; nil on the scalar path.
	Data []byte
}

// Abort constructs the Target Abort response to a request.
func (p Packet) Abort() Packet {
	if !p.Cmd.IsRequest() {
		panic(fmt.Sprintf("ht: Abort on non-request packet %v", p.Cmd))
	}
	return Packet{Cmd: CmdTgtAbort, SrcUnit: p.SrcUnit, SrcTag: p.SrcTag, Addr: p.Addr}
}

// Response constructs the payload-less response packet that closes the
// transaction: RdSized yields a RdResponse of Count bytes, WrSized a
// TgtDone.
func (p Packet) Response() Packet {
	switch p.Cmd {
	case CmdRdSized:
		return Packet{Cmd: CmdRdResponse, SrcUnit: p.SrcUnit, SrcTag: p.SrcTag, Addr: p.Addr, Count: p.Count}
	case CmdWrSized:
		return Packet{Cmd: CmdTgtDone, SrcUnit: p.SrcUnit, SrcTag: p.SrcTag, Addr: p.Addr}
	default:
		panic(fmt.Sprintf("ht: Response on non-request packet %v", p.Cmd))
	}
}

// Validate reports the first protocol violation in the packet.
func (p Packet) Validate() error {
	switch {
	case !p.Cmd.IsRequest() && !p.Cmd.IsResponse():
		return fmt.Errorf("ht: unknown command %v", p.Cmd)
	case p.SrcUnit >= MaxUnits:
		return fmt.Errorf("ht: unit id %d exceeds the %d-unit chain limit", p.SrcUnit, MaxUnits)
	case p.Cmd.IsRequest() && p.Count <= 0:
		return fmt.Errorf("ht: request with count %d", p.Count)
	case p.Cmd.IsRequest() && !p.Addr.Valid():
		return fmt.Errorf("ht: request address %v out of range", p.Addr)
	case p.Cmd == CmdWrSized && p.Data != nil && len(p.Data) != p.Count:
		return fmt.Errorf("ht: write carries %d bytes, count says %d", len(p.Data), p.Count)
	case p.Cmd == CmdRdResponse && p.Data != nil && len(p.Data) != p.Count:
		return fmt.Errorf("ht: read response carries %d bytes, count says %d", len(p.Data), p.Count)
	case p.Posted && p.Cmd != CmdWrSized:
		return fmt.Errorf("ht: only writes can be posted")
	}
	return p.validateBulk()
}

// FlitBytes returns the packet's wire size in bytes: a 8-byte command
// header plus the data payload, rounded up to 4-byte granularity. Used by
// link-occupancy models. A sized write or a read response without an
// attached payload slice (a line the simulator prices but does not copy)
// still occupies Count bytes on the wire.
func (p Packet) FlitBytes() int {
	n := 8 + len(p.Data)
	if (p.Cmd == CmdWrSized || p.Cmd == CmdRdResponse) && p.Data == nil {
		n += p.Count
	}
	if r := n % 4; r != 0 {
		n += 4 - r
	}
	return n
}

func (p Packet) String() string {
	return fmt.Sprintf("%v{unit=%d tag=%d addr=%v count=%d}", p.Cmd, p.SrcUnit, p.SrcTag, p.Addr, p.Count)
}
