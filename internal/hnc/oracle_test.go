package hnc

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
)

// This file keeps the by-value frame path the bridge and the verifier
// replaced, verbatim apart from methods becoming functions, as the
// oracle for the in-place one: Outbound and Reply returned a Frame that
// Seal copied into a Sealed; Accept checked it; Inbound validated the
// frame again and decapsulated it. The in-place path must build the same
// frames, seal them with the same CRCs and sequence numbers, hand the
// server the same packets, count the same verifier events, and fail
// wherever the oracle fails, with the same error.

// valueChecksum is Frame.Checksum with a value receiver.
func valueChecksum(f Frame) uint32 {
	// The Posted flag shares the Count word: an in-flight flip would
	// silently change completion semantics, so it must be covered too.
	cw := uint64(f.Payload.Count)
	if f.Payload.Posted {
		cw |= 1 << 63
	}
	crc := crcWord(0, uint64(f.Src)|uint64(f.Dst)<<16|uint64(f.Payload.Cmd)<<32|uint64(f.Payload.SrcUnit)<<40|uint64(f.Payload.SrcTag)<<48)
	crc = crcWord(crc, f.Seq)
	crc = crcWord(crc, uint64(f.Payload.Addr))
	crc = crcWord(crc, cw)
	return crc32.Update(crc, crc32.IEEETable, f.Payload.Data)
}

// oracleSeal is Seal: attaches the checksum.
func oracleSeal(f Frame) Sealed { return Sealed{Frame: f, CRC: valueChecksum(f)} }

// oracleValidate is Frame.Validate: the first protocol violation in the
// frame.
func oracleValidate(f Frame) error {
	switch {
	case f.Src == 0 || f.Src > addr.MaxNode:
		return fmt.Errorf("hnc: invalid source node %d", f.Src)
	case f.Dst == 0 || f.Dst > addr.MaxNode:
		return fmt.Errorf("hnc: invalid destination node %d", f.Dst)
	}
	return f.Payload.Validate()
}

// oracleOutbound is Bridge.Outbound: encapsulates a local HT request
// whose address carries a remote node prefix.
func oracleOutbound(b *Bridge, p ht.Packet) (Frame, error) {
	if !p.Cmd.IsRequest() {
		return Frame{}, fmt.Errorf("hnc: outbound of non-request %v", p.Cmd)
	}
	if err := p.Validate(); err != nil {
		return Frame{}, err
	}
	dst := p.Addr.Node()
	if dst == 0 {
		return Frame{}, fmt.Errorf("hnc: address %v is local, nothing to bridge", p.Addr)
	}
	return Frame{Src: b.self, Dst: dst, Seq: b.nextSeq(dst), Payload: p}, nil
}

// oracleInbound is Bridge.Inbound: decapsulates a frame arriving from
// the fabric, zeroing a request's prefix.
func oracleInbound(b *Bridge, f *Frame) (ht.Packet, error) {
	if err := oracleValidate(*f); err != nil {
		return ht.Packet{}, err
	}
	if f.Dst != b.self {
		return ht.Packet{}, fmt.Errorf("hnc: frame for node %d delivered to node %d", f.Dst, b.self)
	}
	p := f.Payload
	if p.Cmd.IsRequest() {
		if p.Addr.Node() != b.self {
			return ht.Packet{}, fmt.Errorf("hnc: request %v addressed to node %d arrived at node %d", p, p.Addr.Node(), b.self)
		}
		p.Addr = p.Addr.Local()
	}
	return p, nil
}

// oracleReply is Bridge.Reply: encapsulates a response for the
// requester node.
func oracleReply(b *Bridge, to addr.NodeID, p ht.Packet) (Frame, error) {
	if !p.Cmd.IsResponse() {
		return Frame{}, fmt.Errorf("hnc: reply with non-response %v", p.Cmd)
	}
	f := Frame{Src: b.self, Dst: to, Payload: p}
	if err := oracleValidate(f); err != nil {
		return Frame{}, err
	}
	f.Seq = b.nextSeq(to)
	return f, nil
}

// oracleAccept is Verifier.Accept over the value checksum.
func oracleAccept(v *Verifier, s *Sealed) error {
	f := &s.Frame
	if got := valueChecksum(*f); got != s.CRC {
		v.Corrupt++
		return &ChecksumError{Frame: *f, Got: got, Want: s.CRC}
	}
	switch {
	case f.Dst != v.self:
		return fmt.Errorf("hnc: frame for node %d accepted at node %d", f.Dst, v.self)
	case f.Src == 0 || f.Src > addr.MaxNode:
		return fmt.Errorf("hnc: frame from invalid node %d accepted at node %d", f.Src, v.self)
	}
	v.Received++
	last := v.last.at(f.Src)
	switch {
	case f.Seq == *last+1:
		// In order.
	case f.Seq > *last+1:
		v.Gaps += f.Seq - *last - 1
	default:
		v.Regressions++
		return nil
	}
	*last = f.Seq
	return nil
}

// oracleReceive is a server's receive step as the RMC ran it: Accept,
// then Inbound at the node's bridge.
func oracleReceive(v *Verifier, b *Bridge, s *Sealed) (ht.Packet, error) {
	if err := oracleAccept(v, s); err != nil {
		return ht.Packet{}, err
	}
	return oracleInbound(b, &s.Frame)
}

// oracleNode is one node's endpoint on both paths: the in-place bridge
// and verifier, and an oracle bridge and verifier with their own
// sequence tables.
type oracleNode struct {
	id    addr.NodeID
	b, ob *Bridge
	v, ov *Verifier
}

func newOracleNode(t *testing.T, id addr.NodeID) *oracleNode {
	t.Helper()
	return &oracleNode{id: id, b: mustBridge(t, id), ob: mustBridge(t, id), v: mustVerifier(t, id), ov: mustVerifier(t, id)}
}

// counters is a verifier's event counts, comparable with ==.
type counters struct{ Received, Gaps, Regressions, Corrupt uint64 }

func countersOf(v *Verifier) counters {
	return counters{v.Received, v.Gaps, v.Regressions, v.Corrupt}
}

// sameErr reports whether two errors agree: both nil, or the same type
// and message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return reflect.TypeOf(a) == reflect.TypeOf(b) && a.Error() == b.Error()
}

// randomLocal draws a 64-byte-aligned node-local address.
func randomLocal(rng *rand.Rand) addr.Phys {
	return addr.Phys(rng.Uint64()&(addr.LocalSpace-1)) &^ 63
}

// randomBytes draws n random bytes.
func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// randomSpans encodes 1–4 random line spans on node n, after a copy
// header naming a destination on node to when to is not 0.
func randomSpans(rng *rand.Rand, n, to addr.NodeID) (desc []byte, lines int) {
	spans := 1 + rng.Intn(4)
	pos := 0
	if to != 0 {
		desc = make([]byte, ht.CopyHeaderBytes+spans*ht.SpanBytes)
		ht.PutCopyHeader(desc, randomLocal(rng).WithNode(to))
		pos = ht.CopyHeaderBytes
	} else {
		desc = make([]byte, spans*ht.SpanBytes)
	}
	for i := 0; i < spans; i++ {
		l := 1 + rng.Intn(32)
		ht.PutSpan(desc[pos:], randomLocal(rng).WithNode(n), uint32(l))
		pos += ht.SpanBytes
		lines += l
	}
	return desc, lines
}

// randomRequest draws a valid request to node dst: a scalar read or
// write (with or without data, posted or not), a bulk read or copy
// descriptor, or a bulk write data frame.
func randomRequest(rng *rand.Rand, dst, other addr.NodeID) ht.Packet {
	p := ht.Packet{SrcUnit: ht.UnitID(rng.Intn(ht.MaxUnits)), SrcTag: uint16(rng.Uint32()), Addr: randomLocal(rng).WithNode(dst)}
	switch rng.Intn(6) {
	case 0:
		p.Cmd, p.Count = ht.CmdRdSized, []int{8, 64}[rng.Intn(2)]
	case 1:
		p.Cmd, p.Count, p.Posted = ht.CmdWrSized, 64, rng.Intn(2) == 0
		p.Data = randomBytes(rng, 64)
	case 2:
		// An idempotent line writeback: priced on the wire, no data.
		p.Cmd, p.Count = ht.CmdWrSized, 64
	case 3:
		var lines int
		p.Cmd = ht.CmdBulkRd
		p.Data, lines = randomSpans(rng, dst, 0)
		p.Count = lines * 64
	case 4:
		var lines int
		p.Cmd = ht.CmdBulkCopy
		p.Data, lines = randomSpans(rng, dst, other)
		p.Count = lines * 64
	default:
		n := 1 + rng.Intn(16)
		p.Cmd, p.Count, p.SrcTag = ht.CmdBulkWr, n*64, ht.BurstTag(rng.Intn(8), 8)
		p.Data = randomBytes(rng, n*64)
	}
	return p
}

// randomResponse draws a valid response: a line read's data, the
// payload-less line reply the scalar path sends, a bulk read data frame,
// a TgtDone or a Target Abort.
func randomResponse(rng *rand.Rand) ht.Packet {
	p := ht.Packet{SrcUnit: ht.UnitID(rng.Intn(ht.MaxUnits)), SrcTag: uint16(rng.Uint32())}
	switch rng.Intn(5) {
	case 0:
		p.Cmd, p.Count, p.Addr = ht.CmdRdResponse, 64, randomLocal(rng)
		p.Data = randomBytes(rng, 64)
	case 1:
		p.Cmd, p.Count, p.Addr = ht.CmdRdResponse, 64, randomLocal(rng)
	case 2:
		n := 1 + rng.Intn(16)
		p.Cmd, p.Count, p.SrcTag = ht.CmdRdResponse, n*64, ht.BurstTag(rng.Intn(8), 8)
		p.Data = randomBytes(rng, n*64)
	case 3:
		p.Cmd = ht.CmdTgtDone
	default:
		p.Cmd, p.Addr = ht.CmdTgtAbort, randomLocal(rng)
	}
	return p
}

// randomInvalid breaks a valid packet in one of the ways Validate or
// the bridge refuses: an unknown command, a unit past the chain limit,
// a request with no count, a local request address, a posted non-write,
// or a bulk payload the wrong size.
func randomInvalid(rng *rand.Rand, p ht.Packet) ht.Packet {
	switch rng.Intn(6) {
	case 0:
		p.Cmd = ht.Command(200)
	case 1:
		p.SrcUnit = ht.MaxUnits
	case 2:
		if p.Cmd.IsRequest() {
			p.Count = 0
		} else {
			p.Cmd = ht.CmdRdSized // a request where a response belongs
		}
	case 3:
		if p.Cmd.IsRequest() {
			p.Addr = p.Addr.Local()
		} else {
			// A read response shorter than its count: a payload-less
			// one is valid, so it keeps (or gains) a payload.
			if p.Data == nil {
				p.Data = randomBytes(rng, 8)
				p.Count = 8
			}
			p.Count++
			p.Cmd = ht.CmdRdResponse
		}
	case 4:
		p.Posted = true
		if p.Cmd == ht.CmdWrSized {
			p.Cmd = ht.CmdRdSized
		}
	default:
		p.Data = append(p.Data, 1)
		if p.Cmd == ht.CmdTgtDone || p.Cmd == ht.CmdTgtAbort || p.Cmd == ht.CmdRdSized {
			p.Cmd = ht.CmdBulkRd
		}
	}
	return p
}

// TestInPlaceMatchesOracleProperty runs random frames between random
// nodes through both paths: SealRequest/SealReply against
// Outbound/Reply plus Seal, and Receive against Accept plus Inbound
// (Accept alone for a response a client takes). Each frame is either
// clean, or broken in one of the ways the receiver refuses — a corrupt
// CRC, misdelivery, a node-0 source, a request whose prefix disagrees
// with its destination — or carries a packet the bridge refuses. After
// every step the frames (CRC and sequence included), the decapsulated
// packets, the errors and every verifier counter must agree, and every
// kind of failure must have occurred.
//
// A frame no bridge seals with a packet Validate refuses is outside the
// property: the oracle's Inbound validated it again, and the in-place
// receiver does not, since the sender's bridge validated it and the CRC
// proved it unchanged.
func TestInPlaceMatchesOracleProperty(t *testing.T) {
	failed := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := []addr.NodeID{1, 2, addr.MaxNode}
		for len(ids) < 6 {
			ids = append(ids, addr.NodeID(1+rng.Intn(addr.MaxNode)))
		}
		nodes := map[addr.NodeID]*oracleNode{}
		for _, id := range ids {
			if nodes[id] == nil {
				nodes[id] = newOracleNode(t, id)
			}
		}
		pick := func() *oracleNode { return nodes[ids[rng.Intn(len(ids))]] }
		for step := 0; step < 300; step++ {
			failed[checkOracleStep(t, rng, pick(), pick(), pick(), fmt.Sprintf("seed %d step %d", seed, step))]++
		}
	}
	for _, kind := range []string{"invalid packet", "corrupt CRC", "misdelivery", "node-0 source", "prefix/destination mismatch"} {
		if failed[kind] == 0 {
			t.Errorf("no draw failed with a %s", kind)
		}
	}
}

// checkOracleStep sends one random frame from src toward dst on both
// paths and checks they agree; other is a third node for misdelivery
// and for copy destinations. It returns the kind of failure both paths
// reported, or "" for a frame received cleanly.
func checkOracleStep(t *testing.T, rng *rand.Rand, src, dst, other *oracleNode, at string) string {
	t.Helper()
	request := rng.Intn(2) == 0
	var p ht.Packet
	if request {
		p = randomRequest(rng, dst.id, other.id)
	} else {
		p = randomResponse(rng)
	}
	invalid := rng.Intn(8) == 0
	if invalid {
		p = randomInvalid(rng, p)
	}

	// Send side.
	var s Sealed
	var f Frame
	var err, oerr error
	if request {
		err = src.b.SealRequest(&s, &p)
		f, oerr = oracleOutbound(src.ob, p)
	} else {
		err = src.b.SealReply(&s, dst.id, &p)
		f, oerr = oracleReply(src.ob, dst.id, p)
	}
	if !sameErr(err, oerr) {
		t.Fatalf("%s: sealing %v: error %v, oracle %v", at, p, err, oerr)
	}
	if (err != nil) != invalid {
		t.Fatalf("%s: packet %v (invalid: %v) sealed with error %v", at, p, invalid, err)
	}
	if err != nil {
		// The slot is untouched, and neither bridge took a sequence
		// number: later steps compare them.
		if !reflect.DeepEqual(s, Sealed{}) {
			t.Fatalf("%s: a refused packet left %v in the slot", at, &s.Frame)
		}
		return "invalid packet"
	}
	os := oracleSeal(f)
	if !reflect.DeepEqual(s, os) {
		t.Fatalf("%s: sealed %v crc %#x, oracle %v crc %#x", at, &s.Frame, s.CRC, &os.Frame, os.CRC)
	}
	if s.CRC != oracleChecksum(f) {
		t.Fatalf("%s: crc %#x, stdlib %#x", at, s.CRC, oracleChecksum(f))
	}

	// Receive side: break both copies the same way, on the wire or in
	// how they are delivered.
	at2, kind := dst, ""
	switch rng.Intn(6) {
	case 0: // corrupt: one bit of the CRC or of the payload
		kind = "corrupt CRC"
		if rng.Intn(2) == 0 || len(s.Frame.Payload.Data) == 0 {
			s.CRC ^= 1 << rng.Intn(32)
		} else {
			s.Frame.Payload.Data = bytes.Clone(s.Frame.Payload.Data)
			s.Frame.Payload.Data[rng.Intn(len(s.Frame.Payload.Data))] ^= 1 << rng.Intn(8)
		}
		os = s
	case 1: // misdelivered to another node
		at2, kind = other, "misdelivery"
	case 2: // a node-0 source, resealed as if the sender said so
		kind = "node-0 source"
		s.Frame.Src = 0
		s.CRC = s.Frame.Checksum()
		os.Frame.Src = 0
		os = oracleSeal(os.Frame)
	case 3: // a request whose prefix names another node, resealed
		if s.Frame.Payload.Cmd.IsRequest() {
			kind = "prefix/destination mismatch"
			s.Frame.Payload.Addr = s.Frame.Payload.Addr.Local().WithNode(other.id)
			s.CRC = s.Frame.Checksum()
			os = oracleSeal(s.Frame)
		}
	}

	var got, want ht.Packet
	if request || rng.Intn(2) == 0 {
		err = at2.v.Receive(&s, &got)
		want, oerr = oracleReceive(at2.ov, at2.ob, &os)
	} else {
		// A client takes a response with Accept alone.
		err, oerr = at2.v.Accept(&s), oracleAccept(at2.ov, &os)
	}
	if !sameErr(err, oerr) {
		t.Fatalf("%s: receiving %v at node %d: error %v, oracle %v", at, &s.Frame, at2.id, err, oerr)
	}
	var ce, oce *ChecksumError
	if errors.As(err, &ce) != errors.As(oerr, &oce) {
		t.Fatalf("%s: checksum errors disagree: %v, oracle %v", at, err, oerr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decapsulated %v, oracle %v", at, got, want)
	}
	if c, oc := countersOf(at2.v), countersOf(at2.ov); c != oc {
		t.Fatalf("%s: verifier at node %d counted %+v, oracle %+v", at, at2.id, c, oc)
	}
	if err == nil {
		return ""
	}
	return kind
}
