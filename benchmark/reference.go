package main

import "time"

// The host is a share of a machine whose other tenants slow memory-bound
// code by up to 40% for seconds to minutes at a time. The orchestrator
// therefore times a fixed piece of the benchmark's own work — the
// reference — before the first op and after every op, and rescales each
// op's host times by how slow the reference ran around it. The reference
// mixes what the simulator spends its time on: arithmetic, random reads
// and writes over a table far larger than L2, map churn, and chains of
// short-lived heap objects. It never changes with the program, so a
// change to the program moves the rescaled times while the reference
// tracks only the host. It runs in a child process of its own, so the
// orchestrator stays small: a child's peak RSS includes its parent's at
// the moment of the exec.

// refNominalS is the reference's time on an unloaded 2-CPU x86-64 host
// (Go 1.24), so rescaled times read as seconds on that host.
const refNominalS = 0.16

// Sizes of the reference's four parts, each about 40 ms on that host.
const (
	refTableWords = 4 << 20 // 32 MiB
	refALU        = 15_000_000
	refMem        = 8_000_000
	refMap        = 800_000
	refAlloc      = 800_000
)

type refNode struct {
	next *refNode
	v    [6]uint64
}

var (
	refSink uint64
	refHead *refNode
)

// runReference fills the table, which takes its page faults outside the
// measurement, and returns the time of one run of the reference in
// seconds.
func runReference() float64 {
	table := make([]uint64, refTableWords)
	for i := range table {
		table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	start := time.Now()
	x := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var s uint64
	for i := 0; i < refALU; i++ {
		s += next() * uint64(i)
	}
	mask := uint64(len(table) - 1)
	for i := 0; i < refMem; i++ {
		j := next() & mask
		s ^= table[j]
		table[j] += s
	}
	m := map[uint64]uint64{}
	for i := 0; i < refMap; i++ {
		k := next() & 0xffff
		m[k] += uint64(i)
		if i%3 == 0 {
			delete(m, k^1)
		}
	}
	var head *refNode
	for i := 0; i < refAlloc; i++ {
		head = &refNode{next: head}
		head.v[0] = uint64(i)
		if i%1024 == 0 {
			head = nil
		}
	}
	refSink += s + uint64(len(m))
	refHead = head
	return time.Since(start).Seconds()
}
