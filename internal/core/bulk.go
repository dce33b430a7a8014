package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/params"
	"repro/internal/rmc"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Span selects one byte range of a bulk operation, at a line-aligned
// offset from the operation's base pointer. Spans are the columnar
// shape: a table scan reads one span per segment of the projected
// column, in one operation.
type Span struct {
	// Offset from the base pointer; must be a cache-line multiple.
	Offset uint64
	// Bytes in the span; must be a positive cache-line multiple.
	Bytes uint64
}

// ReadBulk issues one timed scatter-gather read: the spans (virtual,
// relative to p) are translated, coalesced into physically contiguous
// runs, grouped by owning node, and issued as doorbell-batched bursts —
// local runs through the memory controllers, remote runs through the
// RMC's bulk plane. The gathered bytes land in buf (span order) when
// the operation completes; ownership of buf transfers to the operation
// until done fires. done receives the completion time of the last
// burst.
//
// Bulk transfers bypass the coherent caches (DMA semantics): a caller
// that may hold dirty cached lines of the source flushes first, exactly
// the phase discipline of BeginParallelRead.
func (r *Region) ReadBulk(now sim.Time, p vm.Virt, spans []Span, buf []byte, done func(sim.Time, error)) error {
	runs, total, err := r.lineRuns(p, spans)
	if err != nil {
		return err
	}
	if buf != nil && len(buf) < total {
		return fmt.Errorf("core: bulk read sink holds %d bytes, spans cover %d", len(buf), total)
	}
	return r.issueRuns(now, rmc.BulkRead, runs, buf, done)
}

// WriteBulk issues one timed scatter-gather write: data (span order,
// exactly covering the spans) lands in the owning nodes' memory when
// the operation completes. Ownership of data transfers to the operation
// until done fires; the buffer is never recycled into internal pools.
func (r *Region) WriteBulk(now sim.Time, p vm.Virt, spans []Span, data []byte, done func(sim.Time, error)) error {
	runs, total, err := r.lineRuns(p, spans)
	if err != nil {
		return err
	}
	if len(data) != total {
		return fmt.Errorf("core: bulk write payload holds %d bytes, spans cover %d", len(data), total)
	}
	return r.issueRuns(now, rmc.BulkWrite, runs, data, done)
}

// CopyBulk issues one timed region-to-region copy of n bytes from src
// to dst (both line-aligned, n a positive line multiple). Pieces whose
// source and destination both live on remote nodes move server-to-
// server — the bytes never transit this node; local endpoints decompose
// into controller traffic or write bursts (cluster.Node.IssueBulk).
func (r *Region) CopyBulk(now sim.Time, dst, src vm.Virt, n uint64, done func(sim.Time, error)) error {
	if done == nil {
		return fmt.Errorf("core: bulk copy needs a done callback")
	}
	if n == 0 || n%params.CacheLineSize != 0 {
		return fmt.Errorf("core: bulk copy of %d bytes; need a positive cache-line multiple", n)
	}
	srcRuns, _, err := r.lineRuns(src, []Span{{Offset: 0, Bytes: n}})
	if err != nil {
		return err
	}
	dstRuns, _, err := r.lineRuns(dst, []Span{{Offset: 0, Bytes: n}})
	if err != nil {
		return err
	}
	// Intersect the two run lists into pieces contiguous on both sides.
	type piece struct {
		src, dst addr.Phys
		lines    int
	}
	var pieces []piece
	si, di := 0, 0
	soff, doff := 0, 0 // lines consumed of the current runs
	maxLines := r.sys.p.BurstMaxLines()
	for si < len(srcRuns) && di < len(dstRuns) {
		s, d := srcRuns[si], dstRuns[di]
		lines := min(s.lines-soff, d.lines-doff)
		lines = min(lines, maxLines)
		pieces = append(pieces, piece{
			src:   s.pa + addr.Phys(soff*params.CacheLineSize),
			dst:   d.pa + addr.Phys(doff*params.CacheLineSize),
			lines: lines,
		})
		soff += lines
		doff += lines
		if soff == s.lines {
			si, soff = si+1, 0
		}
		if doff == d.lines {
			di, doff = di+1, 0
		}
	}
	j := &bulkJoin{remaining: len(pieces), done: done}
	self := r.node.ID()
	for _, pc := range pieces {
		// The RMC routes the destination by address prefix, so a
		// client-local destination travels as its loopback alias.
		cd := pc.dst
		if canon := cd.Canonical(self); canon.IsLocal() {
			cd = canon.WithNode(self)
		}
		if err := r.node.IssueBulk(now, rmc.BulkRequest{
			Kind:    rmc.BulkCopy,
			Spans:   []rmc.Span{{Start: pc.src, Lines: pc.lines}},
			CopyDst: cd,
			Done:    j.one,
		}); err != nil {
			return fmt.Errorf("core: bulk copy piece at %v: %w", pc.src, err)
		}
	}
	return nil
}

// physRun is one physically contiguous, single-owner line run.
type physRun struct {
	pa    addr.Phys // as translated: prefixed for remote owners
	lines int
}

// lineRuns translates the spans page-wise and coalesces physically
// adjacent same-owner pages into runs, preserving span order. Returns
// the runs and the total byte count.
func (r *Region) lineRuns(p vm.Virt, spans []Span) ([]physRun, int, error) {
	if len(spans) == 0 {
		return nil, 0, fmt.Errorf("core: bulk operation carries no spans")
	}
	self := r.node.ID()
	var runs []physRun
	total := 0
	for _, s := range spans {
		if s.Bytes == 0 || s.Bytes%params.CacheLineSize != 0 {
			return nil, 0, fmt.Errorf("core: bulk span of %d bytes; need a positive cache-line multiple", s.Bytes)
		}
		if s.Offset%params.CacheLineSize != 0 {
			return nil, 0, fmt.Errorf("core: bulk span offset %d is not line-aligned", s.Offset)
		}
		va := p + vm.Virt(s.Offset)
		rem := s.Bytes
		for rem > 0 {
			pa, err := r.Translate(va)
			if err != nil {
				return nil, 0, err
			}
			nb := params.PageSize - va.Offset()
			if rem < nb {
				nb = rem
			}
			lines := int(nb / params.CacheLineSize)
			if l := len(runs); l > 0 {
				last := &runs[l-1]
				end := last.pa + addr.Phys(uint64(last.lines)*params.CacheLineSize)
				if end == pa && owner(last.pa, self) == owner(pa, self) {
					last.lines += lines
					va += vm.Virt(nb)
					rem -= nb
					continue
				}
			}
			runs = append(runs, physRun{pa: pa, lines: lines})
			va += vm.Virt(nb)
			rem -= nb
		}
		total += int(s.Bytes)
	}
	return runs, total, nil
}

// owner maps a (possibly prefixed) physical address to its owning node.
func owner(pa addr.Phys, self addr.NodeID) addr.NodeID {
	if canon := pa.Canonical(self); !canon.IsLocal() {
		return canon.Node()
	}
	return self
}

// issueRuns groups consecutive same-owner runs into bursts (capped at
// the burst geometry) and issues them, joining the completions. The cap
// is counted in frames, as the RMC counts it: each span is framed on its
// own, so many short spans exhaust a burst's frames long before its
// line capacity.
func (r *Region) issueRuns(now sim.Time, kind rmc.BulkKind, runs []physRun, data []byte, done func(sim.Time, error)) error {
	if done == nil {
		return fmt.Errorf("core: bulk operation needs a done callback")
	}
	self := r.node.ID()
	frameLines, maxFrames := r.sys.p.BulkFrameLines, r.sys.p.BulkMaxFrames

	// First pass: count the bursts so the join knows its fan-in before
	// the first completion can fire.
	type burst struct {
		spans []rmc.Span
		bytes int
	}
	var bursts []burst
	cur := burst{}
	curNode := addr.NodeID(0)
	curFrames := 0
	flush := func() {
		if len(cur.spans) > 0 {
			bursts = append(bursts, cur)
			cur, curFrames = burst{}, 0
		}
	}
	for _, run := range runs {
		node := owner(run.pa, self)
		if node != curNode {
			flush()
			curNode = node
		}
		pa, lines := run.pa, run.lines
		for lines > 0 {
			take := min(lines, (maxFrames-curFrames)*frameLines)
			if take == 0 {
				flush()
				continue
			}
			cur.spans = append(cur.spans, rmc.Span{Start: pa, Lines: take})
			cur.bytes += take * params.CacheLineSize
			curFrames += (take + frameLines - 1) / frameLines
			pa += addr.Phys(take * params.CacheLineSize)
			lines -= take
		}
	}
	flush()

	j := &bulkJoin{remaining: len(bursts), done: done}
	pos := 0
	for _, b := range bursts {
		var sub []byte
		if data != nil {
			sub = data[pos : pos+b.bytes]
		}
		pos += b.bytes
		if err := r.node.IssueBulk(now, rmc.BulkRequest{
			Kind:  kind,
			Spans: b.spans,
			Data:  sub,
			Done:  j.one,
		}); err != nil {
			return fmt.Errorf("core: bulk burst at %v: %w", b.spans[0].Start, err)
		}
	}
	return nil
}

// bulkJoin completes a bulk operation when its last burst drains: the
// reported time is the maximum completion, the error the first failure.
type bulkJoin struct {
	remaining int
	last      sim.Time
	err       error
	done      func(sim.Time, error)
}

func (j *bulkJoin) one(t sim.Time, err error) {
	if err != nil && j.err == nil {
		j.err = err
	}
	if t > j.last {
		j.last = t
	}
	j.remaining--
	if j.remaining == 0 {
		j.done(j.last, j.err)
	}
}
