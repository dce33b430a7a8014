// Bulk (scatter-gather) transfers over the single-line path's
// machinery. One doorbell descriptor carries N line ranges; the server
// walks them as a pipelined burst of multi-line data frames, so the
// per-request overheads — client admission, HNC headers, server
// occupancy, the completion ack — amortize over the whole transfer
// instead of repeating per line. Region-to-region DMA copy rides the
// same machinery with the source node streaming data frames straight to
// the destination node; the payload never transits the requester.
//
// A burst is admitted, sealed and received exactly as a scalar request
// is (admit, seal/sealReply, accept/receive), and every data frame
// travels under the same retransmission discipline, so under a fault
// plan a dropped frame resends only itself — the burst's other frames
// are unaffected and the client reassembles out-of-order arrivals by
// frame index.
//
// The continuation and buffer pools follow rmc.go's recycling rule, with
// or without a fault plan: each frame gets exactly one clean delivery or
// one abandon, and a mangled duplicate never reaches the op. A burst can
// complete while frames are still scheduled or on the wire — an abort,
// or one frame abandoned while the others travel — so its op counts
// those frames and returns to the pool only when the last has landed.
package rmc

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/hnc"
	"repro/internal/ht"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// BulkKind selects the bulk operation.
type BulkKind int

// The bulk operations.
const (
	// BulkRead gathers the spans from their owning node into multi-line
	// response frames.
	BulkRead BulkKind = iota + 1
	// BulkWrite scatters a payload over the spans, acknowledged by one
	// cumulative TgtDone for the whole burst.
	BulkWrite
	// BulkCopy is region-to-region DMA: the node owning the source
	// spans streams them directly to the destination node.
	BulkCopy
)

func (k BulkKind) String() string {
	switch k {
	case BulkRead:
		return "read"
	case BulkWrite:
		return "write"
	case BulkCopy:
		return "copy"
	default:
		return fmt.Sprintf("BulkKind(%d)", int(k))
	}
}

// Span is one contiguous run of cache lines, line-aligned and
// node-prefixed. All spans of a burst live on one node.
type Span struct {
	Start addr.Phys
	Lines int
}

// BulkRequest describes one burst.
type BulkRequest struct {
	Kind  BulkKind
	Spans []Span

	// Data is the write payload (BulkWrite: required, spans' total
	// bytes, consumed in span order) or the read sink (BulkRead:
	// optional; when non-nil the gathered bytes land in it). Ownership
	// transfers to the RMC until Done fires: the caller must not touch
	// the buffer while the burst is in flight.
	Data []byte

	// CopyDst is the line-aligned, node-prefixed destination base of a
	// BulkCopy; the spans' lines land there contiguously in span order.
	CopyDst addr.Phys

	// Express routes every frame over dedicated express links.
	Express bool

	// Done fires exactly once at the simulated completion time. err is
	// nil unless the burst was abandoned past the retransmit budget
	// (*UnreachableError) or refused by protection (*AbortError).
	Done func(sim.Time, error)
}

// AbortError reports that a bulk burst was refused by the serving
// node's protection check (Target Abort).
type AbortError struct{ Dst addr.NodeID }

func (e *AbortError) Error() string {
	return fmt.Sprintf("rmc: bulk burst aborted by node %d's protection check", e.Dst)
}

// RequestBulk submits one burst. Errors are reported synchronously for
// malformed requests; transport failures arrive through Done. Like the
// scalar path, the burst is timed against real frames and fabric
// traversals; unlike it, the burst carries bytes (Data in, Data out,
// copied bytes), and leaves memory as the same lines written one by one
// into the owner's store would.
func (r *RMC) RequestBulk(now sim.Time, req BulkRequest) error {
	if req.Done == nil {
		return fmt.Errorf("rmc: bulk request without completion callback")
	}
	if len(req.Spans) == 0 {
		return fmt.Errorf("rmc: bulk request with no spans")
	}
	frameLines := r.p.BulkFrameLines
	dst := req.Spans[0].Start.Node()
	lines, frames := 0, 0
	for _, s := range req.Spans {
		switch {
		case s.Lines < 1:
			return fmt.Errorf("rmc: bulk span with %d lines", s.Lines)
		case !s.Start.Valid():
			return fmt.Errorf("rmc: bulk span start %v out of range", s.Start)
		case uint64(s.Start)%params.CacheLineSize != 0:
			return fmt.Errorf("rmc: bulk span start %v is not line aligned", s.Start)
		case s.Start.Node() != dst:
			return fmt.Errorf("rmc: bulk spans straddle nodes %d and %d (one burst, one owner)", dst, s.Start.Node())
		}
		lines += s.Lines
		frames += (s.Lines + frameLines - 1) / frameLines
	}
	if dst == 0 {
		return fmt.Errorf("rmc: bulk spans are local; the BARs should have routed them to a memory controller")
	}
	if dst == r.self {
		return fmt.Errorf("rmc: bulk spans own node %d's memory; local spans are served by the memory controllers", dst)
	}
	peer, err := r.peer(dst)
	if err != nil {
		return err
	}
	if r.exch.setSize > 1 {
		// A burst's continuation carries client- and server-side state on
		// one struct, mutated from both ends of the transfer; that is
		// sound on a single engine but not across shards.
		return &params.ShardGateError{Feature: "the bulk data plane", Shards: int(r.exch.setSize)}
	}
	maxFrames := r.p.BulkMaxFrames
	if maxFrames > ht.MaxBurstFrames {
		maxFrames = ht.MaxBurstFrames
	}
	if frames > maxFrames {
		return fmt.Errorf("rmc: burst needs %d frames, cap is %d; split the transfer", frames, maxFrames)
	}
	total := lines * params.CacheLineSize
	var wrServer *RMC // the RMC serving the write frames and sending the ack
	switch req.Kind {
	case BulkRead:
		if req.Data != nil && len(req.Data) != total {
			return fmt.Errorf("rmc: bulk read sink carries %d bytes, spans say %d", len(req.Data), total)
		}
	case BulkWrite:
		if len(req.Data) != total {
			return fmt.Errorf("rmc: bulk write payload carries %d bytes, spans say %d", len(req.Data), total)
		}
		wrServer = peer
	case BulkCopy:
		cd := req.CopyDst
		switch {
		case !cd.Valid() || cd.Node() == 0:
			return fmt.Errorf("rmc: bulk copy destination %v is not node-prefixed", cd)
		case uint64(cd)%params.CacheLineSize != 0:
			return fmt.Errorf("rmc: bulk copy destination %v is not line aligned", cd)
		}
		if wrServer, err = r.peer(cd.Node()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("rmc: unknown bulk kind %v", req.Kind)
	}

	if r.bulkLat == nil {
		r.bulkLat = metrics.NewHistogram(metrics.TimeBuckets())
	}
	r.Requests++
	r.BulkBursts++
	r.BulkLines += uint64(lines)
	r.BulkDataFrames += uint64(frames)
	if req.Kind == BulkCopy {
		r.BulkCopies++
	}

	op := r.getBulkOp()
	op.kind, op.express, op.done = req.Kind, req.Express, req.Done
	op.data, op.copyDst, op.dst = req.Data, req.CopyDst, dst
	op.spans = append(op.spans[:0], req.Spans...)
	op.lines, op.frames = lines, frames
	op.attempt, op.issued = 0, now
	op.completed, op.srvAdmitted, op.srvAborted = false, false, false
	op.gotCount, op.srvGotCount, op.srvDone = 0, 0, 0
	op.srvMemDone = 0
	op.got = resetBools(op.got, frames)
	op.srvGot = resetBools(op.srvGot, frames)
	op.peer, op.wrServer = peer, wrServer
	for len(op.slots) < frames {
		op.slots = append(op.slots, op.newFrameSlot())
	}
	if req.Kind == BulkRead {
		// Frame index -> sink byte offset, precomputed so out-of-order
		// arrivals land in the right place.
		op.offs = op.offs[:0]
		pos := 0
		for _, s := range op.spans {
			for off := 0; off < s.Lines; off += frameLines {
				op.offs = append(op.offs, pos)
				pos += min(frameLines, s.Lines-off) * params.CacheLineSize
			}
		}
	}
	r.admit(now, &op.admission)
	return nil
}

// bulkOp is the whole burst's continuation, client and server halves.
// The server halves (srv*) ride on the same struct: the simulation is
// one process, and the scalar path already threads the client's
// completion through the serving RMC the same way.
type bulkOp struct {
	admission
	r       *RMC
	kind    BulkKind
	express bool
	spans   []Span
	data    []byte
	copyDst addr.Phys
	dst     addr.NodeID
	lines   int
	frames  int
	offs    []int

	issued    sim.Time
	completed bool
	done      func(sim.Time, error)

	peer     *RMC // RMC owning the spans (descriptor / read-frame source)
	wrServer *RMC // RMC serving the burst's write frames and sending the ack

	// The burst's send ops, bound once with the op: the doorbell
	// descriptor, the completion ack, and one slot per data frame by
	// index. pending counts the frames still scheduled at a server or on
	// the wire: a burst that completes early is recycled only once its
	// last frame has landed, so neither the op nor a send op is reused
	// while an event that reads it is still queued.
	desc    sendOp
	ack     sendOp
	slots   []*frameSlot
	pending int

	// Client-side burst assembly (read data frames).
	got      []bool
	gotCount int

	// Server-side burst assembly (write/copy data frames).
	srvGot      []bool
	srvGotCount int
	srvDone     int
	srvAdmitted bool
	srvAborted  bool
	srvMemDone  sim.Time

	descDeliverFn func(sim.Time, *hnc.Sealed)
	dataDeliverFn func(sim.Time, *hnc.Sealed)
	ackDeliverFn  func(sim.Time, *hnc.Sealed)
	abandonFn     func(sim.Time, int)
	srvAckFn      func()
}

// frameSlot is one data frame of a burst: its send op, and — for a frame
// the span owner reads out of memory — the packet staged at the owner and
// the memory-done instant sendFn puts it on the wire at.
type frameSlot struct {
	send   sendOp
	pkt    ht.Packet
	at     sim.Time
	sendFn func()
}

func (r *RMC) getBulkOp() *bulkOp {
	if n := len(r.bulkFreeOps); n > 0 {
		op := r.bulkFreeOps[n-1]
		r.bulkFreeOps = r.bulkFreeOps[:n-1]
		return op
	}
	op := &bulkOp{r: r}
	op.retryFn = func() { op.r.admit(op.r.eng.Now(), &op.admission) }
	op.launchFn = func() { op.r.launchBulk(op) }
	op.descDeliverFn = func(t sim.Time, s *hnc.Sealed) {
		op.peer.serveBulkDesc(t, s, op)
		op.landed()
	}
	op.dataDeliverFn = func(t sim.Time, s *hnc.Sealed) {
		if op.kind == BulkRead {
			op.frameDelivered(t, s)
		} else {
			op.wrServer.serveBulkWriteFrame(t, s, op)
		}
		op.landed()
	}
	op.ackDeliverFn = func(t sim.Time, s *hnc.Sealed) {
		op.ackDelivered(t, s)
		op.landed()
	}
	op.abandonFn = func(t sim.Time, attempts int) {
		op.complete(t, &UnreachableError{Dst: op.dst, Attempts: attempts})
		op.landed()
	}
	op.srvAckFn = func() { op.wrServer.sendBulkAck(op.srvMemDone, op, false) }
	op.desc.bind(op.descDeliverFn, op.abandonFn, r.exch)
	op.ack.bind(op.ackDeliverFn, op.abandonFn, r.exch)
	return op
}

// newFrameSlot builds the op's next data-frame slot, bound once.
func (op *bulkOp) newFrameSlot() *frameSlot {
	fs := &frameSlot{}
	fs.send.bind(op.dataDeliverFn, op.abandonFn, op.r.exch)
	fs.sendFn = func() { op.sendFrame(fs) }
	return fs
}

func (r *RMC) putBulkOp(op *bulkOp) {
	op.data = nil
	op.done = nil
	op.peer, op.wrServer = nil, nil
	op.desc.release()
	op.ack.release()
	for _, fs := range op.slots {
		fs.send.release()
		fs.pkt = ht.Packet{}
	}
	r.bulkFreeOps = append(r.bulkFreeOps, op)
}

// send transmits the burst frame sealed into so from `from` to dst,
// counting it pending until its delivery or abandonment lands.
func (op *bulkOp) send(from *RMC, now sim.Time, so *sendOp, dst *RMC) {
	op.pending++
	from.sendSealed(now, so, dst, op.express)
}

// landed retires one pending frame once its delivery or abandon callback
// (or, for a frame staged at a server, its send) has run; the last
// frame home of a completed burst recycles the op.
func (op *bulkOp) landed() {
	op.pending--
	if op.completed && op.pending == 0 {
		op.r.putBulkOp(op)
	}
}

// complete finishes the burst exactly once on the client side. It runs
// inside a frame's delivery or abandon callback, so that frame's landed
// recycles the op afterwards.
func (op *bulkOp) complete(t sim.Time, err error) {
	if op.completed {
		return
	}
	op.completed = true
	if err == nil {
		op.r.bulkLat.Observe(t - op.issued)
	}
	op.done(t, err)
}

// launchBulk puts the burst on the wire once client service is done:
// reads and copies send one doorbell descriptor; writes send their data
// frames directly (the payload is the doorbell).
func (r *RMC) launchBulk(op *bulkOp) {
	now := op.serviced
	switch op.kind {
	case BulkRead, BulkCopy:
		cmd := ht.CmdBulkRd
		if op.kind == BulkCopy {
			cmd = ht.CmdBulkCopy
		}
		pkt := ht.Packet{Cmd: cmd, Addr: op.spans[0].Start, Count: op.lines * params.CacheLineSize, Data: r.encodeDescriptor(op)}
		r.seal(&op.desc, &pkt)
		op.send(r, now, &op.desc, op.peer)
	case BulkWrite:
		frameLines := r.p.BulkFrameLines
		idx, pos := 0, 0
		for _, s := range op.spans {
			for off := 0; off < s.Lines; off += frameLines {
				nbytes := min(frameLines, s.Lines-off) * params.CacheLineSize
				pkt := ht.Packet{
					Cmd:    ht.CmdBulkWr,
					SrcTag: ht.BurstTag(idx, op.frames),
					Addr:   s.Start + addr.Phys(off*params.CacheLineSize),
					Count:  nbytes,
					Data:   op.data[pos : pos+nbytes],
				}
				so := &op.slots[idx].send
				r.seal(so, &pkt)
				op.send(r, now, so, op.peer)
				idx++
				pos += nbytes
			}
		}
	}
}

// encodeDescriptor renders the burst's span list (and, for copies, the
// destination header) into a pooled buffer that rides as the doorbell
// packet's payload — so descriptor size is priced on the wire and
// covered by the frame CRC like any other payload.
func (r *RMC) encodeDescriptor(op *bulkOp) []byte {
	n := len(op.spans) * ht.SpanBytes
	if op.kind == BulkCopy {
		n += ht.CopyHeaderBytes
	}
	b := r.getLineBuf(n)
	pos := 0
	if op.kind == BulkCopy {
		ht.PutCopyHeader(b, op.copyDst)
		pos = ht.CopyHeaderBytes
	}
	for _, s := range op.spans {
		ht.PutSpan(b[pos:], s.Start, uint32(s.Lines))
		pos += ht.SpanBytes
	}
	return b
}

// serveBulkDesc handles a read/copy doorbell at the node owning the
// spans: one server occupancy for the whole burst, then per-frame DRAM
// accesses whose bank contention pipelines the data frames — each frame
// is staged in its slot and leaves at its own memory-done instant while
// later frames are still being read.
func (r *RMC) serveBulkDesc(now sim.Time, sealed *hnc.Sealed, op *bulkOp) {
	var local ht.Packet
	r.receive(sealed, &local)
	if op.completed || op.srvAdmitted {
		return // a duplicate delivery of a retransmitted doorbell
	}
	op.srvAdmitted = true
	serviced, _ := r.server.Acquire(now, r.p.RMCServerOccupancy)
	r.ServedHere++

	desc := local.Data
	pos := 0
	var dstBase addr.Phys
	if local.Cmd == ht.CmdBulkCopy {
		dstBase = ht.GetCopyHeader(desc)
		pos = ht.CopyHeaderBytes
	}
	if r.protection != nil {
		for p := pos; p < len(desc); p += ht.SpanBytes {
			start, lines := ht.GetSpan(desc[p:])
			rng := addr.Range{Start: start.Local(), Size: uint64(lines) * params.CacheLineSize}
			if !r.protection.Allowed(sealed.Frame.Src, rng) {
				r.Aborted++
				op.srvAborted = true
				r.sendBulkAck(serviced, op, true)
				op.r.putLineBuf(desc)
				return
			}
		}
	}

	frameLines := r.p.BulkFrameLines
	idx, doff := 0, 0
	for p := pos; p < len(desc); p += ht.SpanBytes {
		start, spanLines := ht.GetSpan(desc[p:])
		lstart := start.Local()
		for off := 0; off < int(spanLines); off += frameLines {
			n := min(frameLines, int(spanLines)-off)
			nbytes := n * params.CacheLineSize
			fstart := lstart + addr.Phys(off*params.CacheLineSize)
			memDone, err := r.bank.AccessLines(serviced, fstart, n, false)
			if err != nil {
				panic(fmt.Sprintf("rmc%d: bulk memory access failed: %v", r.self, err))
			}
			data := r.getLineBuf(nbytes)
			if err := r.store.ReadAt(fstart, data); err != nil {
				panic(fmt.Sprintf("rmc%d: bulk functional read failed: %v", r.self, err))
			}
			fs := op.slots[idx]
			fs.at = memDone
			fs.pkt = ht.Packet{Cmd: ht.CmdRdResponse, SrcTag: ht.BurstTag(idx, op.frames), Count: nbytes, Data: data}
			if op.kind == BulkCopy {
				daddr := dstBase + addr.Phys(doff)
				if op.wrServer == r {
					// Same-node DMA: source and destination share a
					// memory system, so the copy never leaves the node.
					daddr = daddr.Local()
				}
				fs.pkt.Cmd, fs.pkt.Addr = ht.CmdBulkWr, daddr
			}
			op.pending++ // until sendFrame puts it on the wire
			r.eng.At(memDone, fs.sendFn)
			idx++
			doff += nbytes
		}
	}
	op.r.putLineBuf(desc)
}

// sendFrame fires at a staged data frame's memory-done instant at the
// span owner: read data returns to the client, copy data leaves for the
// destination node, and a same-node copy lands in the owner's store.
func (op *bulkOp) sendFrame(fs *frameSlot) {
	owner := op.peer
	switch {
	case op.kind == BulkRead:
		owner.sealReply(&fs.send, op.r.self, &fs.pkt)
		op.send(owner, fs.at, &fs.send, op.r)
	case op.wrServer != owner:
		owner.seal(&fs.send, &fs.pkt)
		op.send(owner, fs.at, &fs.send, op.wrServer)
	default:
		owner.applyBulkWrite(fs.at, fs.pkt, op)
	}
	op.landed()
}

// frameDelivered runs at the client when one read data frame arrives.
func (op *bulkOp) frameDelivered(t sim.Time, s *hnc.Sealed) {
	if op.completed {
		return
	}
	op.r.accept(s)
	pay := &s.Frame.Payload
	idx, total := ht.BurstIndex(pay.SrcTag)
	if total != op.frames || idx >= len(op.got) || op.got[idx] {
		return // stale or duplicate frame from an earlier life of this op
	}
	op.got[idx] = true
	op.gotCount++
	if op.data != nil {
		copy(op.data[op.offs[idx]:], pay.Data)
	}
	op.peer.putLineBuf(pay.Data)
	if op.gotCount == op.frames {
		op.complete(t, nil)
	}
}

// serveBulkWriteFrame handles one write/copy data frame at the node
// owning the destination. The first frame of a burst pays the server
// occupancy; the rest only pay DRAM — the server-side half of the
// amortization. One cumulative TgtDone acknowledges the whole burst.
func (r *RMC) serveBulkWriteFrame(now sim.Time, sealed *hnc.Sealed, op *bulkOp) {
	var local ht.Packet
	r.receive(sealed, &local)
	if op.completed || op.srvAborted {
		return
	}
	idx, total := ht.BurstIndex(local.SrcTag)
	if total != op.frames || idx >= len(op.srvGot) || op.srvGot[idx] {
		return
	}
	op.srvGot[idx] = true
	serviced := now
	if op.srvGotCount == 0 {
		serviced, _ = r.server.Acquire(now, r.p.RMCServerOccupancy)
		r.ServedHere++
	}
	op.srvGotCount++
	if r.protection != nil {
		rng := addr.Range{Start: local.Addr, Size: uint64(local.Count)}
		if !r.protection.Allowed(sealed.Frame.Src, rng) {
			r.Aborted++
			op.srvAborted = true
			r.sendBulkAck(serviced, op, true)
			return
		}
	}
	r.applyBulkWrite(serviced, local, op)
}

// applyBulkWrite performs one frame's timed bank run and the functional
// store write, then sends the cumulative ack once every frame of the
// burst has landed.
func (r *RMC) applyBulkWrite(now sim.Time, local ht.Packet, op *bulkOp) {
	memDone, err := r.bank.AccessLines(now, local.Addr, local.Count/params.CacheLineSize, true)
	if err != nil {
		panic(fmt.Sprintf("rmc%d: bulk memory access failed: %v", r.self, err))
	}
	if err := r.store.WriteAt(local.Addr, local.Data); err != nil {
		panic(fmt.Sprintf("rmc%d: bulk functional write failed: %v", r.self, err))
	}
	if op.kind == BulkCopy {
		// Copy payloads ride the source node's pooled buffers; write
		// payloads are caller-owned slices and are never recycled here.
		op.peer.putLineBuf(local.Data)
	}
	if memDone > op.srvMemDone {
		op.srvMemDone = memDone
	}
	op.srvDone++
	if op.srvDone == op.frames {
		r.eng.At(op.srvMemDone, op.srvAckFn)
	}
}

// sendBulkAck sends the burst's single completion (or abort) frame back
// to the requester.
func (r *RMC) sendBulkAck(now sim.Time, op *bulkOp, abort bool) {
	rsp := ht.Packet{Cmd: ht.CmdTgtDone}
	if abort {
		rsp = ht.Packet{Cmd: ht.CmdTgtAbort}
	}
	r.sealReply(&op.ack, op.r.self, &rsp)
	op.send(r, now, &op.ack, op.r)
}

// ackDelivered runs at the client when the cumulative ack arrives.
func (op *bulkOp) ackDelivered(t sim.Time, s *hnc.Sealed) {
	if op.completed {
		return
	}
	op.r.accept(s)
	if s.Frame.Payload.Cmd == ht.CmdTgtAbort {
		op.complete(t, &AbortError{Dst: s.Frame.Src})
		return
	}
	op.complete(t, nil)
}

// getLineBuf returns a pooled buffer of n bytes for a burst's payload:
// a descriptor, or a data frame read out of memory. It may contain stale
// bytes (every consumer overwrites the full length).
func (r *RMC) getLineBuf(n int) []byte {
	if l := len(r.lineBufs); l > 0 {
		if b := r.lineBufs[l-1]; cap(b) >= n {
			r.lineBufs = r.lineBufs[:l-1]
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putLineBuf returns a buffer to r's pool. A burst returns its buffers
// to the pool they came from, which may be another RMC's: bursts run on
// one engine only, so no pool is ever touched from two shards.
func (r *RMC) putLineBuf(b []byte) { r.lineBufs = append(r.lineBufs, b) }

// resetBools returns b resized to n with every element false, reusing
// capacity.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}
