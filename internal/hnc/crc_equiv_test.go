package hnc

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/ht"
)

// oracleChecksum is the frame checksum as first specified: CRC-32 (IEEE)
// over the 32-byte little-endian header image, then over the payload,
// all through hash/crc32. Checksum must stay bit-identical to it.
func oracleChecksum(f Frame) uint32 {
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(f.Src)|uint64(f.Dst)<<16|uint64(f.Payload.Cmd)<<32|uint64(f.Payload.SrcUnit)<<40|uint64(f.Payload.SrcTag)<<48)
	binary.LittleEndian.PutUint64(hdr[8:], f.Seq)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(f.Payload.Addr))
	cw := uint64(f.Payload.Count)
	if f.Payload.Posted {
		cw |= 1 << 63
	}
	binary.LittleEndian.PutUint64(hdr[24:], cw)
	return crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, f.Payload.Data)
}

func TestCrcWordMatchesStdlib(t *testing.T) {
	f := func(crc uint32, w uint64) bool {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		return crcWord(crc, w) == crc32.Update(crc, crc32.IEEETable, b[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomFrame builds a frame with every header field drawn at random and
// a random payload of n bytes (nil when n is 0).
func randomFrame(rng *rand.Rand, n int) Frame {
	var data []byte
	if n > 0 {
		data = make([]byte, n)
		rng.Read(data)
	}
	return Frame{
		Src: addr.NodeID(rng.Uint32()), Dst: addr.NodeID(rng.Uint32()), Seq: rng.Uint64(),
		Payload: ht.Packet{
			Cmd: ht.Command(rng.Uint32()), SrcUnit: ht.UnitID(rng.Uint32()), SrcTag: uint16(rng.Uint32()),
			Addr: addr.Phys(rng.Uint64()), Count: int(rng.Int63() - rng.Int63()), Posted: rng.Intn(2) == 0,
			Data: data,
		},
	}
}

// TestChecksumMatchesStdlib: the split checksum — header words through
// the slicing-by-8 step, payload through hash/crc32 — equals the
// all-stdlib definition for random headers and payloads of 0–8 KiB,
// including every size around the hardware path's block boundaries.
func TestChecksumMatchesStdlib(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		fr := randomFrame(rand.New(rand.NewSource(seed)), int(n)%(8<<10+1))
		return fr.Checksum() == oracleChecksum(fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 4096, 8 << 10} {
		fr := randomFrame(rng, n)
		if got, want := fr.Checksum(), oracleChecksum(fr); got != want {
			t.Errorf("%d-byte payload: Checksum = %#x, stdlib %#x", n, got, want)
		}
	}
	empty := randomFrame(rng, 0)
	empty.Payload.Data = []byte{}
	if empty.Checksum() != oracleChecksum(empty) {
		t.Error("empty non-nil payload diverges from stdlib")
	}
}
