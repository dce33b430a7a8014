package hnc

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/ht"
)

// FuzzPeerStreams drives the per-peer sequence table from both ends. One
// Bridge at a hub node sends frames to peers drawn among ids spread
// across 1..addr.MaxNode, and one Verifier at the hub hears each peer's
// stream back: every frame delivered 0–2 times, with adjacent swaps.
// After every frame, the frame's Seq and the verifier's Received, Gaps
// and Regressions must equal a reference kept in Go maps. The seeds
// cover one peer, seven, 1,500 (nine doublings of the table) and the
// two ends of the id range alone.
func FuzzPeerStreams(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint16(64))
	f.Add(uint64(2), uint16(7), uint16(400))
	f.Add(uint64(3), uint16(1500), uint16(6000))
	f.Add(uint64(4), uint16(2), uint16(64)) // ids 1 and MaxNode

	f.Fuzz(func(t *testing.T, seed uint64, np, nf uint16) {
		const hub = addr.NodeID(2)
		peers, frames := max(1, int(np)%2049), int(nf)%8193
		rng := xorshift(seed | 1)
		ids := peerIDs(&rng, peers)

		b, err := NewBridge(hub)
		if err != nil {
			t.Fatal(err)
		}
		sent := make(map[addr.NodeID]uint64)
		wire := make([]Sealed, frames)
		for i := range wire {
			dst := ids[rng.intn(peers)]
			if i < peers {
				dst = ids[i] // meet every peer, growing the table
			}
			s := &wire[i]
			if err := b.SealRequest(s, &ht.Packet{Cmd: ht.CmdRdSized, Addr: addr.Phys(0x40).WithNode(dst), Count: 64}); err != nil {
				t.Fatal(err)
			}
			sent[dst]++
			if s.Frame.Seq != sent[dst] {
				t.Fatalf("frame %d to node %d: Seq %d, reference %d", i, dst, s.Frame.Seq, sent[dst])
			}
			// The peer's stream back to the hub.
			s.Frame.Src, s.Frame.Dst = dst, hub
			s.CRC = s.Frame.Checksum()
		}

		var order []int
		for i := range wire {
			for c := rng.intn(3); c > 0; c-- {
				order = append(order, i)
			}
		}
		for i := 0; i+1 < len(order); i += 2 {
			if rng.intn(3) == 0 {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}

		v := mustVerifier(t, hub)
		last := make(map[addr.NodeID]uint64)
		var received, gaps, regressions uint64
		for k, i := range order {
			s := &wire[i]
			if err := v.Accept(s); err != nil {
				t.Fatalf("delivery %d refused: %v", k, err)
			}
			src, seq := s.Frame.Src, s.Frame.Seq
			received++
			if l := last[src]; seq > l {
				gaps += seq - l - 1
				last[src] = seq
			} else {
				regressions++
			}
			if v.Received != received || v.Gaps != gaps || v.Regressions != regressions {
				t.Fatalf("delivery %d (node %d seq %d): verifier received/gaps/regressions %d/%d/%d, reference %d/%d/%d",
					k, src, seq, v.Received, v.Gaps, v.Regressions, received, gaps, regressions)
			}
		}
	})
}

// peerIDs draws n distinct node ids: 1 and addr.MaxNode first, then
// uniform draws across the range.
func peerIDs(rng *xorshift, n int) []addr.NodeID {
	ids := []addr.NodeID{1, addr.MaxNode}[:min(n, 2)]
	seen := map[addr.NodeID]bool{1: true, addr.MaxNode: true}
	for len(ids) < n {
		id := addr.NodeID(1 + rng.intn(addr.MaxNode))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}
