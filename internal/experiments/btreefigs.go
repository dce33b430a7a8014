package experiments

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/btree"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/swap"
)

// btreeResidency scales the swap configuration's resident-page budget
// with the workload so scaled-down runs keep the paper's
// footprint-vs-local-memory ratio.
func btreeResidency(o Options) int { return o.scaled(o.P.SwapResidentPages, 64) }

// drawKeys draws the paper's population: n distinct random keys over
// the dense space [0, 4n), returned in ascending order. A bitset dedups
// with the same acceptance sequence as a map at a fraction of the cost
// (n/2 bytes), and reading it in word order yields the key set already
// sorted, so no caller sorts the draw.
func drawKeys(o Options, n int) []uint64 {
	rng := rand.New(rand.NewSource(o.Seed))
	seen := make([]uint64, (4*n+63)/64)
	for drawn := 0; drawn < n; {
		k := uint64(rng.Int63n(int64(n) * 4))
		if seen[k/64]&(1<<(k%64)) == 0 {
			seen[k/64] |= 1 << (k % 64)
			drawn++
		}
	}
	keys := make([]uint64, 0, n)
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			keys = append(keys, uint64(w)*64+uint64(bits.TrailingZeros64(word)))
		}
	}
	return keys
}

// buildTreeFrom bulk-loads sorted keys at the given fanout so every
// level but the last is full and the last fills left to right. The tree
// keeps keys as its leaves (btree.BulkLoad), so sweeps that build one
// tree per point from the same (seed, n) draw share one sorted slice,
// which nothing may modify afterwards.
func buildTreeFrom(fanout int, keys []uint64) (*btree.Tree, error) {
	tr, err := btree.New(fanout)
	if err != nil {
		return nil, err
	}
	if err := tr.BulkLoad(keys); err != nil {
		return nil, err
	}
	return tr, nil
}

// buildTree populates a tree the paper's way: n random keys, bulk-loaded.
// The sorted draw becomes the tree's key array without a copy.
func buildTree(o Options, fanout, n int) (*btree.Tree, error) {
	return buildTreeFrom(fanout, drawKeys(o, n))
}

// probeKeys draws a search sweep's lookup keys: count keys uniform over
// [0, keySpace) from the Seed+1 stream. Every sweep over the same key
// space looks up the same keys, so a figure draws them once and its
// tasks share the read-only slice.
func probeKeys(o Options, keySpace int64, count int) []uint64 {
	rng := rand.New(rand.NewSource(o.Seed + 1))
	keys := make([]uint64, count)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(keySpace))
	}
	return keys
}

// searchFunc looks key up through an index's batched producer, pricing
// its accesses through acc, and returns how many it made.
type searchFunc func(key uint64, acc memmodel.Accessor, b *memmodel.Batcher) uint64

// treeSearch is a b-tree's searchFunc.
func treeSearch(tr *btree.Tree) searchFunc {
	return func(key uint64, acc memmodel.Accessor, b *memmodel.Batcher) uint64 {
		_, _, accesses := tr.SearchBatch(key, acc, b)
		return accesses
	}
}

// searchSweep looks every key up in order and prices each lookup under
// every memory configuration in accs from one walk of the index. It
// returns each configuration's mean time per lookup in µs, and the
// accesses the lookups made.
func searchSweep(keys []uint64, search searchFunc, accs ...memmodel.Accessor) ([]float64, uint64) {
	t := &tee{accs: accs, totals: make([]params.Duration, len(accs))}
	var b memmodel.Batcher
	var accesses uint64
	for _, k := range keys {
		accesses += search(k, t, &b)
	}
	means := make([]float64, len(accs))
	for i, total := range t.totals {
		mean := params.Duration(float64(total) / float64(len(keys)))
		means[i] = float64(mean) / float64(params.Microsecond)
	}
	return means, accesses
}

// tee prices every batch under each of its accessors in turn and keeps
// each one's total, so each accessor sees exactly the batches it would
// see alone. The sweep reads the totals; tee's own cost is zero.
type tee struct {
	accs   []memmodel.Accessor
	totals []params.Duration
}

func (t *tee) Access(a uint64, write bool) params.Duration {
	op := [1]memmodel.AccessOp{{Addr: a, Write: write}}
	return t.AccessBatch(op[:])
}

func (t *tee) AccessBatch(ops []memmodel.AccessOp) params.Duration {
	for i, acc := range t.accs {
		t.totals[i] += acc.AccessBatch(ops)
	}
	return 0
}

func (t *tee) Name() string { return "tee" }

// Fig9 sweeps the b-tree fanout (children per node) under remote swap to
// find the optimum: a U-shaped curve with its minimum where a node fills
// exactly one 4 KiB page (~168 children at 24 bytes per entry), the
// paper's headline 168. The remote-memory series is flat by comparison —
// Equation (2) does not care about page locality.
func Fig9(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("fig9", "B-tree search time vs children per node (10M keys, scaled)",
		"children per node", "time per search (µs)")
	swapSeries := fig.AddSeries("remote swap")
	remoteSeries := fig.AddSeries("remote memory")

	nKeys := o.scaled(paperKeys, 20_000)
	searches := o.scaled(500_000, 1_000)
	resident := btreeResidency(o)

	fanouts := []int{8, 16, 32, 64, 96, 128, 168, 200, 256, 384, 512, 768, 1024}
	// Every fanout point populates from the same (seed, n) key set; draw
	// it once, and every point's tree reads it in place.
	sharedKeys := drawKeys(o, nKeys)
	probes := probeKeys(o, int64(nKeys)*4, searches)
	type fanoutPoint struct{ swap, remote float64 }
	points, err := sweep(o, len(fanouts), func(_ *point, i int) (fanoutPoint, error) {
		fanout := fanouts[i]
		tr, err := buildTreeFrom(fanout, sharedKeys)
		if err != nil {
			return fanoutPoint{}, err
		}
		if tr.FootprintBytes() <= uint64(resident)*params.PageSize {
			return fanoutPoint{}, fmt.Errorf("experiments: fig9 tree (%d bytes) fits in residency; raise Scale", tr.FootprintBytes())
		}
		sw, err := memmodel.NewSwap(o.P, swap.RemoteDevice{P: o.P, Hops: 1}, resident)
		if err != nil {
			return fanoutPoint{}, err
		}
		means, _ := searchSweep(probes, treeSearch(tr), sw, memmodel.Remote{P: o.P, Hops: 1})
		return fanoutPoint{swap: means[0], remote: means[1]}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, fanout := range fanouts {
		swapSeries.Add(float64(fanout), points[i].swap)
		remoteSeries.Add(float64(fanout), points[i].remote)
	}
	fig.Note("expected: U-shape for remote swap with minimum near fanout 168 (one node = one page); remote memory nearly flat")
	return fig, nil
}

// Fig10 sweeps the key count at the optimal fanout: remote memory grows
// smoothly with tree depth while remote swap explodes once the tree
// outgrows local residency (page thrashing). The analytic Equation 1/2
// predictions bracket the measured curves.
func Fig10(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("fig10", "B-tree search scalability vs number of keys (fanout 168)",
		"keys in tree", "time per search (µs)")
	remoteSeries := fig.AddSeries("remote memory")
	swapSeries := fig.AddSeries("remote swap")

	searches := o.scaled(500_000, 1_000)
	resident := btreeResidency(o)
	base := o.scaled(paperKeys, 20_000)
	fracs := []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0}
	type sizePoint struct {
		n            int
		remote, swap float64
	}
	points, err := sweep(o, len(fracs), func(_ *point, i int) (sizePoint, error) {
		n := int(float64(base) * fracs[i])
		if n < 128 {
			n = 128
		}
		tr, err := buildTree(o, 168, n)
		if err != nil {
			return sizePoint{}, err
		}
		sw, err := memmodel.NewSwap(o.P, swap.RemoteDevice{P: o.P, Hops: 1}, resident)
		if err != nil {
			return sizePoint{}, err
		}
		probes := probeKeys(o, int64(n)*4, searches)
		means, _ := searchSweep(probes, treeSearch(tr), memmodel.Remote{P: o.P, Hops: 1}, sw)
		return sizePoint{n: n, remote: means[0], swap: means[1]}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		remoteSeries.Add(float64(pt.n), pt.remote)
		swapSeries.Add(float64(pt.n), pt.swap)
	}
	fig.Note("expected: remote memory grows stepwise with depth; remote swap explodes once the tree outgrows the %d resident pages", resident)
	return fig, nil
}

// Equations cross-checks the closed-form models against the mechanistic
// ones on a uniform-locality trace and reports the crossover locality.
func Equations(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("eq", "Equations (1) and (2) vs mechanistic models",
		"accesses per resident page (locality)", "total memory time (ms)")
	eq1 := fig.AddSeries("Eq(1) remote swap")
	eq2 := fig.AddSeries("Eq(2) remote memory")
	meas1 := fig.AddSeries("measured swap")
	meas2 := fig.AddSeries("measured remote")

	pages := o.scaled(2000, 100)
	perPages := []int{1, 2, 4, 8, 16, 32, 64, 128}
	type eqPoint struct{ pred1, pred2, meas1, meas2 params.Duration }
	points, err := sweep(o, len(perPages), func(_ *point, i int) (eqPoint, error) {
		perPage := perPages[i]
		total := uint64(pages) * uint64(perPage)

		sw, err := memmodel.NewSwap(o.P, swap.RemoteDevice{P: o.P, Hops: 1}, 64)
		if err != nil {
			return eqPoint{}, err
		}
		var pt eqPoint
		rm := memmodel.Remote{P: o.P, Hops: 1}
		ops := make([]memmodel.AccessOp, 0, total)
		for pg := 0; pg < pages; pg++ {
			for j := 0; j < perPage; j++ {
				ops = append(ops, memmodel.AccessOp{Addr: uint64(pg)*params.PageSize + uint64(j*8)})
			}
		}
		pt.meas1 = memmodel.Batch(sw, ops)
		pt.meas2 = memmodel.Batch(rm, ops)
		in := anInputs(o, total, float64(perPage))
		if pt.pred1, err = in.RemoteSwapTime(); err != nil {
			return eqPoint{}, err
		}
		if pt.pred2, err = in.RemoteMemoryTime(); err != nil {
			return eqPoint{}, err
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	for i, perPage := range perPages {
		x := float64(perPage)
		eq1.Add(x, ms(points[i].pred1))
		eq2.Add(x, ms(points[i].pred2))
		meas1.Add(x, ms(points[i].meas1))
		meas2.Add(x, ms(points[i].meas2))
	}
	in := anInputs(o, 1, 1)
	if x, err := in.CrossoverAPage(); err == nil {
		fig.Note("analytic crossover: remote swap overtakes remote memory above %.1f accesses per resident page", x)
	}
	return fig, nil
}
