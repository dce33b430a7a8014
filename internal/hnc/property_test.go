package hnc

import "testing"

// This file property-tests the Verifier's accounting against arbitrary
// drop/reorder/duplicate interleavings of a dense sender stream. The
// invariants it pins down:
//
//   - every delivered frame is Received; the peer window tracks the
//     maximum sequence seen; Gaps + Received - Regressions equals that
//     maximum, so the three counters exactly account for every frame
//     the sender emitted up to the highest one that arrived.
//   - no anomaly is counted exactly when the delivered stream is the
//     identity interleaving — the dense in-order prefix 1..k with
//     nothing lost, duplicated, or reordered.
//
// The interleavings come from a tiny seeded generator rather than
// testing/quick so failures replay exactly.

// xorshift is a minimal deterministic stream for building interleavings.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// interleave mangles the dense stream 1..n with seeded drops,
// duplicates, and adjacent swaps, returning the delivery order.
func interleave(seed uint64, n int) []uint64 {
	rng := xorshift(seed | 1)
	var out []uint64
	for seq := uint64(1); seq <= uint64(n); seq++ {
		switch rng.intn(5) {
		case 0: // dropped
		case 1: // duplicated
			out = append(out, seq, seq)
		default:
			out = append(out, seq)
		}
	}
	// A few adjacent swaps (reordering).
	for i := 0; i+1 < len(out); i += 2 {
		if rng.intn(3) == 0 {
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	return out
}

func deliver(t *testing.T, v *Verifier, seqs []uint64) (accepted int) {
	t.Helper()
	for _, seq := range seqs {
		if err := v.Accept(sealedFrom(t, 1, 3, seq)); err == nil {
			accepted++
		}
	}
	return accepted
}

// clean reports whether v has counted no integrity event.
func clean(v *Verifier) bool { return v.Gaps == 0 && v.Regressions == 0 && v.Corrupt == 0 }

func maxSeq(seqs []uint64) uint64 {
	var m uint64
	for _, s := range seqs {
		if s > m {
			m = s
		}
	}
	return m
}

func TestLooseAccountingProperty(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		seqs := interleave(seed, 60)
		v := mustVerifier(t, 3)
		accepted := deliver(t, v, seqs)

		// Accept refuses nothing with a valid checksum.
		if accepted != len(seqs) {
			t.Fatalf("seed %d: Accept refused %d frames", seed, len(seqs)-accepted)
		}
		if v.Received != uint64(len(seqs)) {
			t.Fatalf("seed %d: Received = %d, want %d", seed, v.Received, len(seqs))
		}
		// Window-advancing arrivals (Received - Regressions) plus the
		// holes they skipped (Gaps) tile [1, max] exactly once.
		if got, want := v.Gaps+v.Received-v.Regressions, maxSeq(seqs); got != want {
			t.Fatalf("seed %d: Gaps+Received-Regressions = %d, want max seq %d (gaps=%d recv=%d regr=%d)",
				seed, got, want, v.Gaps, v.Received, v.Regressions)
		}
	}
}

// TestCleanIffIdentity: the verifier counts no anomaly exactly when the
// delivered stream is the in-order dense prefix 1..k.
func TestCleanIffIdentity(t *testing.T) {
	isIdentity := func(seqs []uint64) bool {
		for i, s := range seqs {
			if s != uint64(i+1) {
				return false
			}
		}
		return true
	}
	identities := 0
	for seed := uint64(1); seed <= 400; seed++ {
		seqs := interleave(seed, 4)
		v := mustVerifier(t, 3)
		deliver(t, v, seqs)
		if clean(v) != isIdentity(seqs) {
			t.Fatalf("seed %d: clean=%v but identity=%v (stream %v)",
				seed, clean(v), isIdentity(seqs), seqs)
		}
		if clean(v) {
			identities++
		}
	}
	// The generator must have exercised both sides of the biconditional.
	if identities == 0 {
		t.Error("no seed produced an identity interleaving; property vacuous on one side")
	}

	// And explicitly: every prefix of the identity stream is clean.
	v := mustVerifier(t, 3)
	for seq := uint64(1); seq <= 32; seq++ {
		if err := v.Accept(sealedFrom(t, 1, 3, seq)); err != nil {
			t.Fatal(err)
		}
		if !clean(v) {
			t.Fatalf("identity prefix of length %d not clean", seq)
		}
	}
}

// TestStrictReplayDoesNotPoisonWindow pins that a replayed frame — the
// window maximum or an older one — is served and counted WITHOUT
// touching the peer window, so the next in-order frame shows no false
// gap.
func TestStrictReplayDoesNotPoisonWindow(t *testing.T) {
	v := mustVerifier(t, 3)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := v.Accept(sealedFrom(t, 1, 3, seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Replay the window maximum: served, counted, window untouched.
	if err := v.Accept(sealedFrom(t, 1, 3, 5)); err != nil {
		t.Fatalf("replayed max-seq frame refused: %v", err)
	}
	// And an older frame.
	if err := v.Accept(sealedFrom(t, 1, 3, 3)); err != nil {
		t.Fatalf("replayed frame 3 refused: %v", err)
	}
	if v.Received != 7 || v.Regressions != 2 {
		t.Errorf("replays: Received = %d, Regressions = %d, want 7 and 2", v.Received, v.Regressions)
	}
	// The next in-order frame must still be in order — no false gap.
	if err := v.Accept(sealedFrom(t, 1, 3, 6)); err != nil {
		t.Fatalf("stream wedged after replay: %v", err)
	}
	if v.Gaps != 0 {
		t.Errorf("replay poisoned the window: Gaps = %d", v.Gaps)
	}
	if v.Regressions != 2 {
		t.Errorf("Regressions = %d, want 2", v.Regressions)
	}
}

// TestHeadDropCounted: a stream whose first frames were lost starts
// above 1; the missing head is a gap (bridges emit dense streams from
// sequence 1, so an unseen peer window sits at 0).
func TestHeadDropCounted(t *testing.T) {
	v := mustVerifier(t, 3)
	if err := v.Accept(sealedFrom(t, 1, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if v.Gaps != 3 {
		t.Errorf("head drop: Gaps = %d, want 3", v.Gaps)
	}
}

// TestPeerStreamsIndependent: counters aggregate but windows are per
// peer; an anomaly on one stream never leaks into another.
func TestPeerStreamsIndependent(t *testing.T) {
	v := mustVerifier(t, 3)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := v.Accept(sealedFrom(t, 1, 3, seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Peer 2 starts its own dense stream at 1.
	if err := v.Accept(sealedFrom(t, 2, 3, 1)); err != nil {
		t.Fatalf("fresh peer refused: %v", err)
	}
	if v.Gaps != 0 || v.Regressions != 0 {
		t.Errorf("peer 1's window leaked into peer 2: gaps=%d regr=%d", v.Gaps, v.Regressions)
	}
}
