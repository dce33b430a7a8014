package memmodel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/params"
	"repro/internal/swap"
)

// meter is an accessor defined outside the model types, as a caller's
// instrumentation wrapper is: it forwards to the accessor it wraps and
// counts what it forwards.
type meter struct {
	acc      Accessor
	accesses uint64
	time     params.Duration
}

func (m *meter) Access(a uint64, write bool) params.Duration {
	d := m.acc.Access(a, write)
	m.accesses++
	m.time += d
	return d
}

func (m *meter) AccessBatch(ops []AccessOp) params.Duration {
	d := m.acc.AccessBatch(ops)
	m.accesses += uint64(len(ops))
	m.time += d
	return d
}

func (m *meter) Name() string { return m.acc.Name() }

// makeStack builds one accessor of the named composition. Each call
// returns a fresh, independent instance so the oracle can drive two
// identical stacks — one scalar, one batched — through the same stream.
func makeStack(t *testing.T, p params.Params, kind string) Accessor {
	t.Helper()
	mkStriped := func() *Striped {
		s, err := NewStriped(p, []Stripe{
			{Start: 0, Size: 1 << 20, Acc: Local{P: p}},
			{Start: 1 << 20, Size: 1 << 20, Acc: Remote{P: p, Hops: 1}},
			{Start: 3 << 20, Size: 1 << 20, Acc: Remote{P: p, Hops: 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkSwap := func(dev swap.Device) *Swap {
		s, err := NewSwap(p, dev, 32)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkCachedN := func(inner Accessor, lines int) *LineCached {
		c, err := NewLineCached(inner, p, lines)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mkCached := func(inner Accessor) *LineCached { return mkCachedN(inner, 64) }
	switch kind {
	case "local":
		return Local{P: p}
	case "remote":
		return Remote{P: p, Hops: 2}
	case "swap-remote":
		return mkSwap(swap.RemoteDevice{P: p, Hops: 1})
	case "swap-disk":
		return mkSwap(swap.DiskDevice{P: p})
	case "striped":
		return mkStriped()
	case "striped-stateful":
		// A stripe backed by a stateful accessor exercises the dynamic
		// (non-const-cost) path inside Striped.
		s, err := NewStriped(p, []Stripe{
			{Start: 0, Size: 1 << 20, Acc: &meter{acc: Local{P: p}}},
			{Start: 1 << 20, Size: 1 << 20, Acc: mkSwap(swap.RemoteDevice{P: p, Hops: 2})},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	case "cached-local":
		return mkCached(Local{P: p})
	case "cached-remote":
		return mkCached(Remote{P: p, Hops: 1})
	case "cached-striped":
		return mkCached(mkStriped())
	case "cached-swap":
		return mkCached(mkSwap(swap.RemoteDevice{P: p, Hops: 1}))
	case "cached-cached-swap":
		// A larger line cache behind a small one: the outer cache's fills
		// and write-backs are the inner cache's accesses.
		return mkCached(mkCachedN(mkSwap(swap.RemoteDevice{P: p, Hops: 1}), 256))
	case "cached-meter":
		return mkCached(&meter{acc: Remote{P: p, Hops: 1}})
	case "meter-cached-striped":
		return &meter{acc: mkCached(mkStriped())}
	case "meter-swap":
		return &meter{acc: mkSwap(swap.RemoteDevice{P: p, Hops: 1})}
	default:
		t.Fatalf("unknown stack %q", kind)
		return nil
	}
}

// oracleStacks lists every composition the oracle covers.
var oracleStacks = []string{
	"local", "remote", "swap-remote", "swap-disk", "striped",
	"striped-stateful", "cached-local", "cached-remote",
	"cached-striped", "cached-swap", "cached-cached-swap", "cached-meter",
	"meter-cached-striped", "meter-swap",
}

// stateSig fingerprints every piece of observable accessor state the
// batch path must keep identical to the scalar path: meters, fill
// counters, cache hit/miss/eviction statistics, residency.
func stateSig(acc Accessor) string {
	switch a := acc.(type) {
	case Local, Remote:
		return "stateless"
	case *Swap:
		c := a.cache
		return fmt.Sprintf("swap{h=%d m=%d ev=%d dev=%d res=%d}",
			c.Hits, c.Misses, c.Evictions, c.DirtyEvictions, c.Resident())
	case *Striped:
		sig := fmt.Sprintf("striped{unmapped=%d", a.Unmapped)
		for i := range a.stripes {
			sig += " " + stateSig(a.stripes[i].Acc)
		}
		return sig + "}"
	case *LineCached:
		return fmt.Sprintf("cached{fills=%d h=%d m=%d ev=%d dev=%d inner=%s}",
			a.Fills, a.lines.Hits, a.lines.Misses, a.lines.Evictions,
			a.lines.DirtyEvictions, stateSig(a.inner))
	case *meter:
		return fmt.Sprintf("meter{n=%d t=%d inner=%s}", a.accesses, a.time, stateSig(a.acc))
	default:
		return "?"
	}
}

// opStream draws a deterministic access stream that exercises hits,
// misses, evictions, dirty writebacks, stripe boundaries, and unmapped
// gaps.
func opStream(seed int64, n int) []AccessOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]AccessOp, n)
	for i := range ops {
		var a uint64
		switch rng.Intn(10) {
		case 0: // unmapped gap between stripes 2 and 3
			a = 2<<20 + uint64(rng.Intn(1<<20))
		case 1, 2, 3: // hot set: high line/page hit rates
			a = uint64(rng.Intn(16 * params.PageSize))
		default: // full mapped span
			a = uint64(rng.Intn(4 << 20))
		}
		ops[i] = AccessOp{Addr: a, Write: rng.Intn(4) == 0}
	}
	return ops
}

// TestScalarBatchOracle is the batching contract: for every accessor
// composition, a random access stream priced through Access one op at a
// time and through AccessBatch in arbitrary chunks produces the
// identical total cost, identical per-chunk subtotals, and identical
// accessor/meter state.
func TestScalarBatchOracle(t *testing.T) {
	p := params.Default()
	for _, kind := range oracleStacks {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				scalar := makeStack(t, p, kind)
				batched := makeStack(t, p, kind)
				ops := opStream(seed, 4096)
				rng := rand.New(rand.NewSource(seed * 31))
				var scalarTotal, batchTotal params.Duration
				for lo := 0; lo < len(ops); {
					hi := lo + 1 + rng.Intn(257)
					if hi > len(ops) {
						hi = len(ops)
					}
					chunk := ops[lo:hi]
					var scalarChunk params.Duration
					for _, op := range chunk {
						scalarChunk += scalar.Access(op.Addr, op.Write)
					}
					batchChunk := Batch(batched, chunk)
					if scalarChunk != batchChunk {
						t.Fatalf("seed %d chunk [%d:%d): scalar %d != batch %d", seed, lo, hi, scalarChunk, batchChunk)
					}
					scalarTotal += scalarChunk
					batchTotal += batchChunk
					lo = hi
				}
				if scalarTotal != batchTotal {
					t.Fatalf("seed %d: totals diverged: %d vs %d", seed, scalarTotal, batchTotal)
				}
				if ss, bs := stateSig(scalar), stateSig(batched); ss != bs {
					t.Fatalf("seed %d: state diverged:\nscalar: %s\nbatch:  %s", seed, ss, bs)
				}
			}
		})
	}
}

// TestBatcherFlush covers the accumulate-and-flush helper.
func TestBatcherFlush(t *testing.T) {
	p := params.Default()
	var b Batcher
	if got := b.Flush(Local{P: p}); got != 0 {
		t.Errorf("empty flush = %d", got)
	}
	b.Read(0)
	b.Read(8)
	b.Read(16)
	if b.Len() != 3 {
		t.Errorf("Len = %d", b.Len())
	}
	if got, want := b.Flush(Local{P: p}), 3*p.DRAMLatency; got != want {
		t.Errorf("flush = %d, want %d", got, want)
	}
	if b.Len() != 0 {
		t.Error("flush did not clear the buffer")
	}
	b.Grow(1024)
	if cap(b.ops) < 1024 {
		t.Error("Grow did not grow")
	}
}

// TestLineCachedEvictionWritebackAddress: a dirty victim's writeback
// is charged at the victim line's own address, so under a Striped inner
// the stripe holding the line pays, never the stripe at address 0.
func TestLineCachedEvictionWritebackAddress(t *testing.T) {
	p := params.Default()
	low := &meter{acc: Remote{P: p, Hops: 1}}
	high := &meter{acc: Remote{P: p, Hops: 4}}
	st, err := NewStriped(p, []Stripe{
		{Start: 0, Size: 64, Acc: low}, // exactly one line at address 0
		{Start: 64, Size: 1 << 20, Acc: high},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLineCached(st, p, 1) // single-line cache: every miss evicts
	if err != nil {
		t.Fatal(err)
	}
	c.Access(64, true)   // fill line 1 via high, dirty
	c.Access(128, false) // evicts dirty line 1 → writeback must hit high
	if low.accesses != 0 {
		t.Errorf("stripe at address 0 charged %d accesses by an eviction of line 1", low.accesses)
	}
	if high.accesses != 3 { // two fills + one writeback
		t.Errorf("holding stripe saw %d accesses, want 3", high.accesses)
	}
}

// TestBatchedPricingLoopAllocs pins the batched pricing loop of every
// hot composition at 0 allocs/op — the macro-layer counterpart of the
// micro layer's engine and RMC alloc tests.
func TestBatchedPricingLoopAllocs(t *testing.T) {
	p := params.Default()
	for _, kind := range []string{
		"local", "remote", "swap-remote", "striped",
		"cached-striped", "cached-swap", "meter-cached-striped",
	} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			acc := makeStack(t, p, kind)
			ops := opStream(11, 2048)
			Batch(acc, ops) // warm caches and map internals
			var sink params.Duration
			allocs := testing.AllocsPerRun(50, func() {
				sink += Batch(acc, ops)
			})
			if allocs != 0 {
				t.Errorf("batched pricing loop: %.1f allocs/op, want 0", allocs)
			}
			if sink == 0 {
				t.Error("priced nothing")
			}
		})
	}
}
