package experiments

import (
	"math/rand"

	"repro/internal/db"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/swap"
)

// AblationIndexes quantifies the paper's footnote 3: in-memory databases
// use hash indexes because, held in (remote) memory, a lookup costs a
// couple of constant-latency probes instead of a logarithmic B-tree
// walk. Under remote swap the two converge — the B-tree's upper levels
// stay resident and linear probing stays on one page, so both pay about
// one fault per lookup — and only the B-tree can answer range queries.
// By evaluating B-trees, the paper deliberately understated its own
// system's advantage; this ablation states it.
func AblationIndexes(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("ablationG", "Index structure: B-tree vs hash (paper footnote 3)",
		"configuration", "time per lookup (µs)")
	btSeries := fig.AddSeries("b-tree (fanout 168)")
	hSeries := fig.AddSeries("hash index")

	nKeys := o.scaled(10_000_000, 20_000)
	searches := o.scaled(500_000, 1_000)
	resident := btreeResidency(o)

	tr, err := buildTree(o, 168, nKeys)
	if err != nil {
		return nil, err
	}
	h, err := db.NewHashIndex(nKeys)
	if err != nil {
		return nil, err
	}
	tr.Walk(func(k uint64) { h.Insert(k, k) })

	type config struct {
		label string
		x     float64
		mk    func() (memmodel.Accessor, error)
	}
	configs := []config{
		{"local memory", 0, func() (memmodel.Accessor, error) { return memmodel.Local{P: o.P}, nil }},
		{"remote memory", 1, func() (memmodel.Accessor, error) { return memmodel.Remote{P: o.P, Hops: 1}, nil }},
		{"remote swap", 2, func() (memmodel.Accessor, error) {
			return memmodel.NewSwap(o.P, swap.RemoteDevice{P: o.P, Hops: 1}, resident)
		}},
	}
	keySpace := int64(nKeys) * 4
	// The tree and the hash index are read-only under search, so every
	// task shares the one copy of each; only the accessors are per task.
	type idxPoint struct {
		bt, h  float64
		probes uint64
	}
	points, err := runner.Map(o.Parallel, len(configs), func(i int) (idxPoint, error) {
		cfg := configs[i]
		accB, err := cfg.mk()
		if err != nil {
			return idxPoint{}, err
		}
		var pt idxPoint
		pt.bt = float64(searchSweep(o, tr, keySpace, searches, accB)) / float64(params.Microsecond)
		accH, err := cfg.mk()
		if err != nil {
			return idxPoint{}, err
		}
		var mean params.Duration
		mean, pt.probes = hashSweep(o, h, keySpace, searches, accH)
		pt.h = float64(mean) / float64(params.Microsecond)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	var sumProbes uint64
	for i, cfg := range configs {
		btSeries.AddLabeled(cfg.label, cfg.x, points[i].bt)
		hSeries.AddLabeled(cfg.label, cfg.x, points[i].h)
		sumProbes += points[i].probes
	}
	fig.Note("in remote memory the hash index wins by ~10x (footnote 3); under swap the structures converge near one fault per lookup")
	fig.Note("mean hash probes per lookup: %.2f", float64(sumProbes)/float64(len(configs)*searches))
	return fig, nil
}

// hashSweep mirrors searchSweep for the hash index: upfront key draw,
// batched probe pricing. It returns the mean cost per lookup and the
// probes the lookups made (each probe is one access).
func hashSweep(o Options, h *db.HashIndex, keySpace int64, searches int, acc memmodel.Accessor) (params.Duration, uint64) {
	rng := rand.New(rand.NewSource(o.Seed + 1))
	var b memmodel.Batcher
	var total params.Duration
	var probes uint64
	for i := 0; i < searches; i++ {
		_, _, cost, accesses := h.SearchBatch(uint64(rng.Int63n(keySpace)), acc, &b)
		total += cost
		probes += accesses
	}
	return params.Duration(float64(total) / float64(searches)), probes
}
