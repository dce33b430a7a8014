package memmodel

import "repro/internal/params"

// Producers price their accesses in batches. At paper scale the b-tree
// searches, PARSEC-class kernels and database queries make hundreds of
// millions of accesses, and one interface call per access dominated the
// run. A producer records one logical unit of work (a node walk, a scan
// segment, a kernel chunk) into a Batcher and prices it with a single
// AccessBatch call, which walks the ops in a loop over the concrete
// model.

// AccessOp is one access in a batch.
type AccessOp struct {
	// Addr is the byte address accessed.
	Addr uint64
	// Write marks stores.
	Write bool
}

// Batch prices ops through acc and returns their total cost.
func Batch(acc Accessor, ops []AccessOp) params.Duration { return acc.AccessBatch(ops) }

// Batcher accumulates the accesses of one logical unit of work — a
// b-tree node visit, a range-scan segment, a kernel pass — and prices
// them in one Batch call. The zero value is ready to use; the op buffer
// is retained across Flush calls, so a reused Batcher's steady state
// allocates nothing. A Batcher must not be shared between goroutines.
type Batcher struct {
	ops []AccessOp
}

// Read records a load at address a.
func (b *Batcher) Read(a uint64) { b.ops = append(b.ops, AccessOp{Addr: a}) }

// Len returns the number of buffered ops.
func (b *Batcher) Len() int { return len(b.ops) }

// Grow ensures capacity for at least n buffered ops, pre-sizing the
// buffer so 0-alloc steady state starts at the first batch.
func (b *Batcher) Grow(n int) {
	if cap(b.ops) < n {
		ops := make([]AccessOp, len(b.ops), n)
		copy(ops, b.ops)
		b.ops = ops
	}
}

// Flush prices the buffered ops through acc in record order, clears the
// buffer (retaining its capacity), and returns the total cost.
func (b *Batcher) Flush(acc Accessor) params.Duration {
	if len(b.ops) == 0 {
		return 0
	}
	d := Batch(acc, b.ops)
	b.ops = b.ops[:0]
	return d
}
