package sim

import (
	"math/rand"
	"testing"
)

// oracleResource is the slot-tracking Resource as it stood before the
// unbounded fast path: every admission — bounded or not — appends its
// release time to waiting, and every Acquire and QueueLen prunes it. It
// is kept verbatim as the specification the O(1) unbounded path must
// reproduce.
type oracleResource struct {
	nextFree         Time
	queueDepth       int
	waiting          []Time
	Served, Rejected uint64
	Busy             Time
}

func (r *oracleResource) prune(now Time) {
	i := 0
	for i < len(r.waiting) && r.waiting[i] <= now {
		i++
	}
	if i > 0 {
		r.waiting = append(r.waiting[:0], r.waiting[i:]...)
	}
}

func (r *oracleResource) Acquire(now Time, occupancy Time) (Time, bool) {
	r.prune(now)
	if r.queueDepth > 0 && len(r.waiting) > r.queueDepth {
		r.Rejected++
		return 0, false
	}
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	done := start + occupancy
	r.nextFree = done
	r.waiting = append(r.waiting, done)
	r.Served++
	r.Busy += occupancy
	return done, true
}

func (r *oracleResource) Penalize(now Time, cost Time) {
	if cost <= 0 {
		return
	}
	if r.nextFree < now {
		r.nextFree = now
	}
	r.nextFree += cost
	r.Busy += cost
	for i, w := range r.waiting {
		if w > now {
			r.waiting[i] = w + cost
		}
	}
}

func (r *oracleResource) QueueLen(now Time) int {
	r.prune(now)
	return len(r.waiting)
}

// TestResourceOracleEquivalence replays seeded random Acquire/Penalize
// interleavings — bursts at one instant, idle gaps, zero and negative
// penalties — against the oracle at queue depths 0 (unbounded) through
// 4, asserting identical completion times, rejections, and tallies at
// every step, and identical queue lengths wherever the queue is bounded.
func TestResourceOracleEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for depth := 0; depth <= 4; depth++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(depth)))
			r := NewResource(depth)
			o := &oracleResource{queueDepth: depth}
			now := Time(0)
			for step := 0; step < 2000; step++ {
				switch rng.Intn(4) {
				case 0:
					now += Time(rng.Intn(200)) // an idle gap or a same-instant burst
				case 1:
					cost := Time(rng.Intn(60) - 10)
					r.Penalize(now, cost)
					o.Penalize(now, cost)
				default:
					occ := Time(rng.Intn(50))
					gd, gok := r.Acquire(now, occ)
					wd, wok := o.Acquire(now, occ)
					if gd != wd || gok != wok {
						t.Fatalf("seed %d depth %d step %d: Acquire(%d, %d) = (%d, %v), oracle (%d, %v)",
							seed, depth, step, now, occ, gd, gok, wd, wok)
					}
				}
				if r.Served != o.Served || r.Rejected != o.Rejected || r.Busy != o.Busy || r.NextFree() != o.nextFree {
					t.Fatalf("seed %d depth %d step %d: tallies (served %d, rejected %d, busy %d, next %d), oracle (%d, %d, %d, %d)",
						seed, depth, step, r.Served, r.Rejected, r.Busy, r.NextFree(), o.Served, o.Rejected, o.Busy, o.nextFree)
				}
				if depth > 0 {
					if g, w := r.QueueLen(now), o.QueueLen(now); g != w {
						t.Fatalf("seed %d depth %d step %d: QueueLen(%d) = %d, oracle %d", seed, depth, step, now, g, w)
					}
				}
			}
		}
	}
}

// TestUnboundedResourceKeepsNoQueue pins the point of the fast path: an
// unbounded resource's Acquire is O(1) and allocation-free however deep
// its backlog grows.
func TestUnboundedResourceKeepsNoQueue(t *testing.T) {
	r := NewResource(0)
	for i := 0; i < 1000; i++ {
		r.Acquire(0, 10)
	}
	if len(r.waiting) != 0 {
		t.Errorf("unbounded resource tracked %d queue slots, want none", len(r.waiting))
	}
	if avg := testing.AllocsPerRun(1000, func() { r.Acquire(0, 10) }); avg != 0 {
		t.Errorf("unbounded Acquire allocates %.2f/op, want 0", avg)
	}
}
