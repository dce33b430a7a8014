package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// BulkScan contrasts the two access shapes the bulk data plane
// separates: a pointer chase (dependent single-line accesses, each
// paying the full round trip before the next can issue) and a columnar
// scan (the same lines as one scatter-gather burst). Both run over
// local and remote memory across transfer sizes; the remote/local
// ratio is the paper's headline number, and the burst collapses it —
// remote bulk approaches local speed because the doorbell, descriptor,
// and ack amortize across the whole transfer while frames pipeline
// behind the DRAM banks.
func BulkScan(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("ablationI", "Pointer chase vs bulk columnar scan",
		"transfer size (KiB)", "scan time (µs)")
	chaseRemote := fig.AddSeries("pointer chase, remote")
	bulkRemote := fig.AddSeries("bulk scan, remote")
	chaseLocal := fig.AddSeries("pointer chase, local")
	bulkLocal := fig.AddSeries("bulk scan, local")

	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	// Point 4i+j runs shape j at sizes[i].
	shapes := []struct{ bulk, remote bool }{{false, true}, {true, true}, {false, false}, {true, false}}
	times, err := sweep(o, len(sizes)*len(shapes), func(pt *point, i int) (sim.Time, error) {
		s := shapes[i%len(shapes)]
		return runScanShape(pt, s.bulk, s.remote, sizes[i/len(shapes)])
	})
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		t := times[len(shapes)*i:]
		kib := float64(size) / 1024
		chaseRemote.Add(kib, us(float64(t[0])))
		bulkRemote.Add(kib, us(float64(t[1])))
		chaseLocal.Add(kib, us(float64(t[2])))
		bulkLocal.Add(kib, us(float64(t[3])))
	}
	at4K := times[:len(shapes)]
	fig.Note("at 4 KiB, one ReadBulk burst is %.1fx cheaper than 64 single-line Access calls to the same remote lines",
		ratio(at4K[0], at4K[1]))
	fig.Note("remote/local ratio: %.1fx pointer-chasing, %.1fx bulk — bursts take remote memory from prohibitive to near-local for scan-shaped queries",
		ratio(at4K[0], at4K[2]), ratio(at4K[1], at4K[3]))
	return fig, nil
}

func ratio(a, b sim.Time) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runScanShape times one scan of the given size and shape on a fresh
// system: bulk issues one ReadBulk over the whole buffer; scalar chains
// dependent single-line accesses (each issued from the previous one's
// completion, the dependence a pointer chase imposes).
func runScanShape(pt *point, bulk, remote bool, bytes int) (sim.Time, error) {
	r, err := pt.run(pt.o.P)
	if err != nil {
		return 0, err
	}
	region, err := r.sys.Region(1)
	if err != nil {
		return 0, err
	}
	var va vm.Virt
	if remote {
		rng, err := r.borrow(1, 2, uint64(max(bytes, 1<<20)))
		if err != nil {
			return 0, err
		}
		va, err = region.MapBorrowed(rng)
		if err != nil {
			return 0, err
		}
	} else {
		va, err = region.Malloc(uint64(bytes))
		if err != nil {
			return 0, err
		}
	}
	lines := bytes / int(params.CacheLineSize)
	var done sim.Time
	if bulk {
		sink := make([]byte, bytes)
		err = region.ReadBulk(0, va, []core.Span{{Offset: 0, Bytes: uint64(bytes)}}, sink,
			func(t sim.Time, err2 error) {
				if err2 == nil {
					done = t
				} else {
					err = err2
				}
			})
		if err != nil {
			return 0, err
		}
	} else {
		var chase func(i int, now sim.Time) error
		chase = func(i int, now sim.Time) error {
			if i == lines {
				done = now
				return nil
			}
			return region.Access(now, 0, va+vm.Virt(i)*vm.Virt(params.CacheLineSize), false,
				func(t sim.Time) {
					if err := chase(i+1, t); err != nil {
						panic(fmt.Sprintf("experiments: pointer chase: %v", err))
					}
				})
		}
		if err := chase(0, 0); err != nil {
			return 0, err
		}
	}
	if _, err := r.finish(); err != nil {
		return 0, err
	}
	if done == 0 {
		return 0, fmt.Errorf("experiments: %v-byte scan (bulk=%v remote=%v) did not finish", bytes, bulk, remote)
	}
	return done, nil
}
