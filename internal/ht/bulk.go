// Bulk (scatter-gather) command vocabulary. The prototype's RMC moves
// one cache line per transaction; the bulk extension adds doorbell
// descriptors that carry N line ranges in one request and multi-line
// data frames that amortize header and ack overhead across a burst.
// The commands live beside the sized subset so the bridge, the CRC
// seal, and the fabric price them exactly like any other packet — a
// burst is bigger frames, not a second wire protocol.
package ht

import (
	"encoding/binary"
	"fmt"

	"repro/internal/addr"
)

// The bulk command extension.
const (
	// CmdBulkRd is a read-burst doorbell: Data carries an encoded span
	// list (see PutSpan), Count the total payload bytes the burst will
	// return. The server answers with pipelined multi-line RdResponse
	// frames, one per up-to-BulkFrameLines lines.
	CmdBulkRd Command = iota + 6
	// CmdBulkWr is one multi-line write data frame of a burst. It is
	// self-routing (Addr + Count describe its line run) and carries its
	// burst position in SrcTag; the target acknowledges the whole burst
	// with a single cumulative TgtDone after the last frame lands.
	CmdBulkWr
	// CmdBulkCopy is a region-to-region DMA doorbell sent to the node
	// owning the source spans: Data carries a copy header (destination
	// base, see PutCopyHeader) followed by the source span list. The
	// source streams CmdBulkWr frames directly to the destination node;
	// the data never transits the requester.
	CmdBulkCopy
)

// Bulk descriptor geometry.
const (
	// SpanBytes is the encoded size of one line span in a descriptor:
	// 8-byte start address + 8-byte line count.
	SpanBytes = 16

	// CopyHeaderBytes prefixes a CmdBulkCopy descriptor: the 8-byte
	// destination base address (node-prefixed) + 8 reserved bytes.
	CopyHeaderBytes = 16

	// MaxBurstFrames bounds the data frames of one burst: the frame
	// index and the burst length share SrcTag's two bytes. Callers split
	// larger transfers into multiple bursts.
	MaxBurstFrames = 256
)

// PutSpan encodes one line span at the start of b (SpanBytes long).
func PutSpan(b []byte, start addr.Phys, lines uint32) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(start))
	binary.LittleEndian.PutUint64(b[8:16], uint64(lines))
}

// GetSpan decodes one line span from the start of b.
func GetSpan(b []byte) (addr.Phys, uint32) {
	return addr.Phys(binary.LittleEndian.Uint64(b[0:8])),
		uint32(binary.LittleEndian.Uint64(b[8:16]))
}

// PutCopyHeader encodes the DMA copy header at the start of b.
func PutCopyHeader(b []byte, dst addr.Phys) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(dst))
	binary.LittleEndian.PutUint64(b[8:16], 0)
}

// GetCopyHeader decodes the DMA copy header from the start of b.
func GetCopyHeader(b []byte) addr.Phys {
	return addr.Phys(binary.LittleEndian.Uint64(b[0:8]))
}

// BurstTag packs a data frame's position into SrcTag: the low byte is
// the frame index, the high byte the burst length minus one.
func BurstTag(index, total int) uint16 {
	if total < 1 || total > MaxBurstFrames || index < 0 || index >= total {
		panic(fmt.Sprintf("ht: burst tag %d/%d out of range", index, total))
	}
	return uint16(index) | uint16(total-1)<<8
}

// BurstIndex unpacks a data frame's burst position from SrcTag.
func BurstIndex(tag uint16) (index, total int) {
	return int(tag & 0xff), int(tag>>8) + 1
}

// validateBulk holds the bulk-specific Validate cases.
func (p Packet) validateBulk() error {
	switch p.Cmd {
	case CmdBulkRd:
		if len(p.Data) == 0 || len(p.Data)%SpanBytes != 0 {
			return fmt.Errorf("ht: bulk read descriptor carries %d bytes, want a positive multiple of %d", len(p.Data), SpanBytes)
		}
	case CmdBulkWr:
		if len(p.Data) != p.Count {
			return fmt.Errorf("ht: bulk write frame carries %d bytes, count says %d", len(p.Data), p.Count)
		}
	case CmdBulkCopy:
		if len(p.Data) < CopyHeaderBytes+SpanBytes || (len(p.Data)-CopyHeaderBytes)%SpanBytes != 0 {
			return fmt.Errorf("ht: bulk copy descriptor carries %d bytes, want header plus spans", len(p.Data))
		}
	}
	return nil
}
