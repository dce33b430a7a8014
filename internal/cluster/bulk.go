package cluster

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/rmc"
	"repro/internal/sim"
)

// IssueBulk issues one bulk burst from this node. All spans must target
// a single node's memory: spans owned by this node are served directly
// by its memory controllers as a pipelined run of line accesses; remote
// spans leave through the RMC as one doorbell-batched burst
// (rmc.RequestBulk). A copy whose source is local decomposes here —
// into controller traffic when the destination is also local, or into
// a write burst carrying the gathered bytes when it is remote.
//
// Bulk transfers bypass the coherent caches on both ends: they are DMA,
// not loads and stores. A caller that may hold dirty cached copies of
// the source (or stale copies of the destination) flushes first — the
// same phase discipline the prototype already imposes between writers
// and remote readers (FlushCaches).
func (n *Node) IssueBulk(now sim.Time, req rmc.BulkRequest) error {
	if req.Done == nil {
		return fmt.Errorf("cluster: node %d: bulk request needs a Done", n.id)
	}
	if len(req.Spans) == 0 {
		return fmt.Errorf("cluster: node %d: bulk request carries no spans", n.id)
	}
	if req.Spans[0].Start.Canonical(n.id).IsLocal() {
		return n.issueBulkLocal(now, req)
	}
	op := n.getBulkIssue()
	op.done = req.Done
	req.Done = op.remoteFn
	lines := 0
	for _, s := range req.Spans {
		lines += s.Lines
	}
	if err := n.rmc.RequestBulk(now, req); err != nil {
		op.done = nil
		n.putBulkIssue(op)
		return err
	}
	n.RemoteOps += uint64(lines)
	return nil
}

// issueBulkLocal serves a burst whose spans this node owns. Reads and
// writes run the span's lines through the memory controllers and
// complete when the last line's bank slot drains; the functional bytes
// move through the store in the same call.
func (n *Node) issueBulkLocal(now sim.Time, req rmc.BulkRequest) error {
	lines := 0
	for _, s := range req.Spans {
		local := s.Start.Canonical(n.id)
		if !local.IsLocal() {
			return fmt.Errorf("cluster: node %d: bulk spans straddle nodes (%v is remote)", n.id, s.Start)
		}
		if s.Lines < 1 {
			return fmt.Errorf("cluster: node %d: bulk span at %v has %d lines", n.id, s.Start, s.Lines)
		}
		if uint64(local)%params.CacheLineSize != 0 {
			return fmt.Errorf("cluster: node %d: bulk span start %v is not line-aligned", n.id, s.Start)
		}
		lines += s.Lines
	}
	total := lines * params.CacheLineSize

	switch req.Kind {
	case rmc.BulkRead:
		if req.Data != nil && len(req.Data) < total {
			return fmt.Errorf("cluster: node %d: bulk read sink holds %d bytes, burst carries %d", n.id, len(req.Data), total)
		}
		memDone, err := n.bulkBankRun(now, req.Spans, false)
		if err != nil {
			return err
		}
		if req.Data != nil {
			if err := n.bulkStoreRead(req.Spans, req.Data); err != nil {
				return err
			}
		}
		n.LocalOps += uint64(lines)
		n.finishBulkLocal(memDone, req.Done)
		return nil

	case rmc.BulkWrite:
		if len(req.Data) != total {
			return fmt.Errorf("cluster: node %d: bulk write payload holds %d bytes, spans cover %d", n.id, len(req.Data), total)
		}
		memDone, err := n.bulkBankRun(now, req.Spans, true)
		if err != nil {
			return err
		}
		pos := 0
		for _, s := range req.Spans {
			nb := s.Lines * params.CacheLineSize
			if err := n.store.WriteAt(s.Start.Canonical(n.id), req.Data[pos:pos+nb]); err != nil {
				return err
			}
			pos += nb
		}
		n.LocalOps += uint64(lines)
		n.finishBulkLocal(memDone, req.Done)
		return nil

	case rmc.BulkCopy:
		if req.CopyDst == 0 || !req.CopyDst.Valid() {
			return fmt.Errorf("cluster: node %d: bulk copy needs a valid destination", n.id)
		}
		// Gather the source through the controllers.
		readDone, err := n.bulkBankRun(now, req.Spans, false)
		if err != nil {
			return err
		}
		payload := make([]byte, total)
		if err := n.bulkStoreRead(req.Spans, payload); err != nil {
			return err
		}
		dst := req.CopyDst.Canonical(n.id)
		if dst.IsLocal() {
			// Local-to-local: scatter back through the controllers once
			// the reads drain, then land the bytes.
			if uint64(dst)%params.CacheLineSize != 0 {
				return fmt.Errorf("cluster: node %d: bulk copy destination %v is not line-aligned", n.id, req.CopyDst)
			}
			memDone, err := n.bank.AccessLines(readDone, dst, lines, true)
			if err != nil {
				return err
			}
			if err := n.store.WriteAt(dst, payload); err != nil {
				return err
			}
			n.LocalOps += uint64(2 * lines)
			n.finishBulkLocal(memDone, req.Done)
			return nil
		}
		// Local source, remote destination: the gathered bytes leave as
		// one write burst when the local reads drain. The payload buffer
		// transfers to the burst (never recycled — write payloads are
		// caller-owned by contract).
		n.LocalOps += uint64(lines)
		done := req.Done
		wr := rmc.BulkRequest{
			Kind:    rmc.BulkWrite,
			Spans:   []rmc.Span{{Start: req.CopyDst, Lines: lines}},
			Data:    payload,
			Express: req.Express,
			Done:    done,
		}
		n.eng.At(readDone, func() {
			if err := n.IssueBulk(readDone, wr); err != nil {
				done(readDone, err)
			}
		})
		return nil
	}
	return fmt.Errorf("cluster: node %d: unknown bulk kind %d", n.id, int(req.Kind))
}

// bulkBankRun drives every line of the spans through the memory
// controllers starting at now and returns when the last slot drains.
// Bank occupancy serializes the lines — the same pipelining the serving
// RMC sees for a remote burst.
func (n *Node) bulkBankRun(now sim.Time, spans []rmc.Span, write bool) (sim.Time, error) {
	memDone := now
	for _, s := range spans {
		t, err := n.bank.AccessLines(now, s.Start.Canonical(n.id), s.Lines, write)
		if err != nil {
			return 0, fmt.Errorf("cluster: node %d: bulk line %v: %w", n.id, s.Start, err)
		}
		memDone = max(memDone, t)
	}
	return memDone, nil
}

// bulkStoreRead gathers the spans' bytes into dst, span order.
func (n *Node) bulkStoreRead(spans []rmc.Span, dst []byte) error {
	pos := 0
	for _, s := range spans {
		nb := s.Lines * params.CacheLineSize
		if err := n.store.ReadAt(s.Start.Canonical(n.id), dst[pos:pos+nb]); err != nil {
			return err
		}
		pos += nb
	}
	return nil
}

// finishBulkLocal schedules the burst's completion without allocating.
func (n *Node) finishBulkLocal(at sim.Time, done func(sim.Time, error)) {
	op := n.getBulkIssue()
	op.done = done
	n.eng.At(at, op.localFn)
}

// bulkIssue carries one node-level burst from issue to completion, the
// bulk twin of issueOp: allocated once, callbacks prebound, recycled
// unconditionally (the RMC invokes Done exactly once even under
// faults).
type bulkIssue struct {
	n    *Node
	done func(sim.Time, error)

	localFn  func()
	remoteFn func(sim.Time, error)
}

func (n *Node) getBulkIssue() *bulkIssue {
	if l := len(n.bulkIssues); l > 0 {
		op := n.bulkIssues[l-1]
		n.bulkIssues = n.bulkIssues[:l-1]
		return op
	}
	op := &bulkIssue{n: n}
	op.localFn = func() {
		done := op.done
		op.n.putBulkIssue(op)
		done(op.n.eng.Now(), nil)
	}
	op.remoteFn = func(t sim.Time, err error) {
		if err != nil {
			op.n.AbandonedOps++
		}
		done := op.done
		op.n.putBulkIssue(op)
		done(t, err)
	}
	return op
}

func (n *Node) putBulkIssue(op *bulkIssue) {
	op.done = nil
	n.bulkIssues = append(n.bulkIssues, op)
}
