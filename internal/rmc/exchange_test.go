package rmc

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// sortedDrain is the drain the merge replaced, kept as the oracle:
// concatenate the held suffix with every shard's fresh intents, sort by
// (time, source, sequence), replay the prefix below horizon and hold the
// rest.
func sortedDrain(held, fresh []xmit, horizon sim.Time) (replayed, rest []xmit) {
	all := append(append([]xmit(nil), held...), fresh...)
	slices.SortFunc(all, func(a, b xmit) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	n := 0
	for n < len(all) && all[n].t < horizon {
		n++
	}
	return all[:n], all[n:]
}

// sameIntents compares two intent streams field by field. An intent's
// delivery func makes it incomparable, so every other field is checked.
func sameIntents(a, b []xmit) bool {
	return slices.EqualFunc(a, b, func(x, y xmit) bool {
		return x.t == y.t && x.seq == y.seq && x.op == y.op && x.to == y.to &&
			x.wire == y.wire && x.shard == y.shard && x.src == y.src && x.dst == y.dst && x.express == y.express
	})
}

// TestDrainMergeMatchesSort draws per-shard runs with heavy same-time
// ties across sources (and the odd intent stamped ahead of its shard's
// clock, as a bulk abort ack is), random horizons that leave random held
// suffixes, at 1, 2, 4 and 8 shards. Barrier after barrier, the merged
// drain must replay exactly the (time, source, sequence) stream of the
// sort-based oracle, each intent with the replay inputs it was recorded
// with, hold exactly its suffix, and report the same earliest pending
// intent per shard.
func TestDrainMergeMatchesSort(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 40; trial++ {
			rng := rand.New(rand.NewSource(int64(100*k + trial)))
			es := NewExchangeSet(sim.NewShardSet(k, 100), nil)
			nodesPer := 1 + rng.Intn(6)
			seqs := map[addr.NodeID]uint64{}
			clock := make([]sim.Time, k)
			var held []xmit
			for barrier := 0; barrier < 30; barrier++ {
				var fresh []xmit
				for i := 0; i < k; i++ {
					for j := rng.Intn(24); j > 0; j-- {
						if rng.Intn(4) == 0 {
							clock[i] += sim.Time(1 + rng.Intn(3))
						}
						at := clock[i]
						if rng.Intn(16) == 0 {
							at += sim.Time(1 + rng.Intn(6))
						}
						src := addr.NodeID(i*nodesPer + 1 + rng.Intn(nodesPer))
						seqs[src]++
						m := xmit{
							t: at, src: src, seq: seqs[src], shard: int32(i),
							to: es.Shard(rng.Intn(k)), dst: addr.NodeID(1 + rng.Intn(k*nodesPer)),
							wire: int32(8 + 8*rng.Intn(10)), express: rng.Intn(8) == 0,
						}
						es.Shard(i).record(m)
						fresh = append(fresh, m)
					}
				}
				for j := 0; j < k; j++ {
					want := sim.MaxTime
					for _, m := range append(append([]xmit(nil), held...), fresh...) {
						if int(m.shard) == j && m.t < want {
							want = m.t
						}
					}
					if got := es.Earliest(j); got != want {
						t.Fatalf("k=%d trial %d barrier %d: Earliest(%d) = %d, oracle %d", k, trial, barrier, j, got, want)
					}
				}
				horizon := sim.MaxTime
				if rng.Intn(3) != 0 {
					horizon = slices.Min(clock) + sim.Time(rng.Intn(5))
				}
				var want []xmit
				want, held = sortedDrain(held, fresh, horizon)
				var got []xmit
				es.drain(horizon, func(m *xmit) { got = append(got, *m) })
				if !sameIntents(got, want) {
					t.Fatalf("k=%d trial %d barrier %d (horizon %d): replayed\n%v\noracle\n%v", k, trial, barrier, horizon, got, want)
				}
				if !sameIntents(es.held, held) {
					t.Fatalf("k=%d trial %d barrier %d: held\n%v\noracle\n%v", k, trial, barrier, es.held, held)
				}
			}
		}
	}
}

// TestDrainSteadyStateAllocs: once its slices have grown, a barrier's
// merge of held and fresh intents allocates nothing.
func TestDrainSteadyStateAllocs(t *testing.T) {
	es := NewExchangeSet(sim.NewShardSet(4, 100), nil)
	var seq uint64
	now := sim.Time(0)
	barrier := func() {
		for i := 0; i < 4; i++ {
			for j := 0; j < 16; j++ {
				seq++
				es.Shard(i).record(xmit{t: now + sim.Time(j%3), src: addr.NodeID(16 - j%5), seq: seq, shard: int32(i)})
			}
		}
		es.drain(now+1, func(*xmit) {}) // replay a third, hold the rest
		now++
	}
	for i := 0; i < 16; i++ {
		barrier()
	}
	if avg := testing.AllocsPerRun(200, barrier); avg != 0 {
		t.Errorf("drain allocates %.2f/op, want 0", avg)
	}
}
