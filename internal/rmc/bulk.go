// Bulk (scatter-gather) transfers: the RMC's second transfer discipline
// beside the single-line path. One doorbell descriptor carries N line
// ranges; the server walks them as a pipelined burst of multi-line data
// frames, so the per-request overheads — client admission, HNC headers,
// server occupancy, the completion ack — amortize over the whole
// transfer instead of repeating per line. Region-to-region DMA copy
// rides the same machinery with the source node streaming data frames
// straight to the destination node; the payload never transits the
// requester.
//
// Every data frame travels under the same sealed-frame retransmission
// discipline as scalar traffic, so under a fault plan a dropped frame
// resends only itself — the burst's other frames are unaffected and the
// client reassembles out-of-order arrivals by frame index.
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
// traversals; the functional payload movement (Data in, Data out,
// copied bytes) happens eagerly so memory state is identical to the
// equivalent sequence of scalar operations.
func (r *RMC) RequestBulk(now sim.Time, req BulkRequest) error {
	if req.Done == nil {
		return fmt.Errorf("rmc: bulk request without completion callback")
	}
	if len(req.Spans) == 0 {
		return fmt.Errorf("rmc: bulk request with no spans")
	}
	frameLines := r.p.BurstFrameLines()
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
	maxFrames := r.p.BurstMaxFrames()
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

	r.ensureBulkMetrics()
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
	for len(op.fsend) < frames {
		so := new(sendOp)
		so.bind(nil, op.abandonFn, r.exch)
		op.fsend = append(op.fsend, so)
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
	r.admitBulk(now, op)
	return nil
}

// bulkOp is the whole burst's continuation, client and server halves.
// The server halves (srv*) ride on the same struct: the simulation is
// one process, and the scalar path already threads the client's
// completion through the serving RMC the same way.
type bulkOp struct {
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

	attempt   uint
	issued    sim.Time
	serviced  sim.Time
	completed bool
	done      func(sim.Time, error)

	peer     *RMC // RMC owning the spans (descriptor / read-frame source)
	wrServer *RMC // RMC serving the burst's write frames and sending the ack

	// The burst's send ops, bound once with the op: the doorbell
	// descriptor, the completion ack, and one per data frame by index
	// (each data frame's deliver is set per burst). pending counts the
	// frames still scheduled at a server or on the wire: a burst that
	// completes early is recycled only once its last frame has landed,
	// so neither the op nor a send op is reused while an event that
	// reads it is still queued.
	desc    sendOp
	ack     sendOp
	fsend   []*sendOp
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

	retryFn        func()
	launchFn       func()
	descDeliverFn  func(sim.Time, hnc.Sealed)
	frameDeliverFn func(sim.Time, hnc.Sealed)
	wrDeliverFn    func(sim.Time, hnc.Sealed)
	ackDeliverFn   func(sim.Time, hnc.Sealed)
	abandonFn      func(sim.Time, int)
	srvAckFn       func()
}

func (r *RMC) getBulkOp() *bulkOp {
	if n := len(r.bulkFreeOps); n > 0 {
		op := r.bulkFreeOps[n-1]
		r.bulkFreeOps = r.bulkFreeOps[:n-1]
		return op
	}
	op := &bulkOp{r: r}
	op.retryFn = func() { op.r.admitBulk(op.r.eng.Now(), op) }
	op.launchFn = func() { op.r.launchBulk(op) }
	op.descDeliverFn = func(t sim.Time, s hnc.Sealed) {
		op.peer.serveBulkDesc(t, s, op)
		op.landed()
	}
	op.frameDeliverFn = func(t sim.Time, s hnc.Sealed) {
		op.frameDelivered(t, s)
		op.landed()
	}
	op.wrDeliverFn = func(t sim.Time, s hnc.Sealed) {
		op.wrServer.serveBulkWriteFrame(t, s, op)
		op.landed()
	}
	op.ackDeliverFn = func(t sim.Time, s hnc.Sealed) {
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

func (r *RMC) putBulkOp(op *bulkOp) {
	op.data = nil
	op.done = nil
	op.peer, op.wrServer = nil, nil
	op.desc.release()
	op.ack.release()
	for _, so := range op.fsend {
		so.release()
	}
	r.bulkFreeOps = append(r.bulkFreeOps, op)
}

// send transmits one of the burst's frames from `from` to dst over so,
// counting it pending until its delivery or abandonment lands.
func (op *bulkOp) send(from *RMC, now sim.Time, so *sendOp, s hnc.Sealed, dst *RMC) {
	op.pending++
	from.sendSealed(now, so, s, dst, op.express)
}

// landed retires one pending frame once its delivery or abandon callback
// (or, for a frame scheduled at a server, its send) has run; the last
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

// admitBulk enters the client queue once for the whole burst — the
// doorbell amortization: N lines pay one admission and one client
// occupancy instead of N.
func (r *RMC) admitBulk(now sim.Time, op *bulkOp) {
	if r.inj.NackStorm(r.self, int64(now)) {
		r.StormNACKs++
		r.nackBulk(now, op)
		return
	}
	serviced, ok := r.client.Acquire(now, r.p.RMCClientOccupancy)
	if !ok {
		r.nackBulk(now, op)
		return
	}
	r.Forwarded++
	op.serviced = serviced
	r.eng.At(serviced, op.launchFn)
}

func (r *RMC) nackBulk(now sim.Time, op *bulkOp) {
	r.Retries++
	r.client.Penalize(now, r.p.RMCRetryWaste)
	backoff := r.p.RMCRetryPenalty << min(op.attempt, 8)
	op.attempt++
	r.eng.After(backoff, op.retryFn)
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
		frame, err := r.bridge.Outbound(pkt)
		if err != nil {
			panic(fmt.Sprintf("rmc%d: bulk outbound bridge failed: %v", r.self, err))
		}
		op.send(r, now, &op.desc, hnc.Seal(frame), op.peer)
	case BulkWrite:
		frameLines := r.p.BurstFrameLines()
		idx, pos := 0, 0
		for _, s := range op.spans {
			for off := 0; off < s.Lines; off += frameLines {
				n := min(frameLines, s.Lines-off)
				nbytes := n * params.CacheLineSize
				pkt := ht.Packet{
					Cmd:    ht.CmdBulkWr,
					SrcTag: ht.BurstTag(idx, op.frames),
					Addr:   s.Start + addr.Phys(off*params.CacheLineSize),
					Count:  nbytes,
					Data:   op.data[pos : pos+nbytes],
				}
				frame, err := r.bridge.Outbound(pkt)
				if err != nil {
					panic(fmt.Sprintf("rmc%d: bulk outbound bridge failed: %v", r.self, err))
				}
				so := op.fsend[idx]
				so.deliver = op.wrDeliverFn
				op.send(r, now, so, hnc.Seal(frame), op.peer)
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
// leaves at its own memory-done instant while later frames are still
// being read.
func (r *RMC) serveBulkDesc(now sim.Time, sealed hnc.Sealed, op *bulkOp) {
	frame, err := r.verif.AcceptLoose(sealed)
	if err != nil {
		if r.inj != nil {
			return // counted; the sender's retransmission recovers
		}
		panic(fmt.Sprintf("rmc%d: bulk frame integrity failed: %v", r.self, err))
	}
	local, err := r.bridge.Inbound(frame)
	if err != nil {
		panic(fmt.Sprintf("rmc%d: bulk inbound bridge failed: %v", r.self, err))
	}
	if op.completed || op.srvAdmitted {
		return // duplicate delivery of a retransmitted doorbell
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
			if !r.protection.Allowed(frame.Src, rng) {
				r.Aborted++
				op.srvAborted = true
				r.sendBulkAck(serviced, op, true)
				op.r.putLineBuf(desc)
				return
			}
		}
	}

	frameLines := r.p.BurstFrameLines()
	idx, doff := 0, 0
	for p := pos; p < len(desc); p += ht.SpanBytes {
		start, spanLines := ht.GetSpan(desc[p:])
		lstart := start.Local()
		for off := 0; off < int(spanLines); off += frameLines {
			n := min(frameLines, int(spanLines)-off)
			nbytes := n * params.CacheLineSize
			fstart := lstart + addr.Phys(off*params.CacheLineSize)
			memDone := serviced
			for l := 0; l < n; l++ {
				t, err := r.bank.Access(serviced, fstart+addr.Phys(l*params.CacheLineSize), false)
				if err != nil {
					panic(fmt.Sprintf("rmc%d: bulk memory access failed: %v", r.self, err))
				}
				if t > memDone {
					memDone = t
				}
			}
			data := r.getLineBuf(nbytes)
			if err := r.store.ReadAt(fstart, data); err != nil {
				panic(fmt.Sprintf("rmc%d: bulk functional read failed: %v", r.self, err))
			}
			f := r.getBulkFrame()
			f.op, f.idx, f.at = op, idx, memDone
			switch local.Cmd {
			case ht.CmdBulkRd:
				f.mode = frameReadData
				f.pkt = ht.Packet{Cmd: ht.CmdRdResponse, SrcTag: ht.BurstTag(idx, op.frames), Count: nbytes, Data: data}
			case ht.CmdBulkCopy:
				daddr := dstBase + addr.Phys(doff)
				if dstBase.Node() == r.self {
					// Same-node DMA: source and destination share a
					// memory system, so the copy never leaves the node.
					f.mode = frameLocalCopy
					f.pkt = ht.Packet{Cmd: ht.CmdBulkWr, SrcTag: ht.BurstTag(idx, op.frames), Addr: daddr.Local(), Count: nbytes, Data: data}
				} else {
					f.mode = frameCopyData
					f.pkt = ht.Packet{Cmd: ht.CmdBulkWr, SrcTag: ht.BurstTag(idx, op.frames), Addr: daddr, Count: nbytes, Data: data}
				}
			}
			op.pending++ // until sendBulkFrame puts it on the wire
			r.eng.At(memDone, f.sendFn)
			idx++
			doff += nbytes
		}
	}
	op.r.putLineBuf(desc)
}

// bulkFrame carries one scheduled data frame from its memory-done
// instant to the wire (or, for same-node copies, to the local store).
type bulkFrame struct {
	r    *RMC
	op   *bulkOp
	idx  int
	at   sim.Time
	mode bulkFrameMode
	pkt  ht.Packet

	sendFn func()
}

type bulkFrameMode int

const (
	frameReadData bulkFrameMode = iota + 1
	frameCopyData
	frameLocalCopy
)

func (r *RMC) getBulkFrame() *bulkFrame {
	if n := len(r.bulkFreeFrames); n > 0 {
		f := r.bulkFreeFrames[n-1]
		r.bulkFreeFrames = r.bulkFreeFrames[:n-1]
		return f
	}
	f := &bulkFrame{r: r}
	f.sendFn = func() { f.r.sendBulkFrame(f) }
	return f
}

func (r *RMC) putBulkFrame(f *bulkFrame) {
	f.op = nil
	f.pkt = ht.Packet{}
	r.bulkFreeFrames = append(r.bulkFreeFrames, f)
}

// sendBulkFrame fires at the frame's memory-done instant.
func (r *RMC) sendBulkFrame(f *bulkFrame) {
	op := f.op
	switch f.mode {
	case frameReadData:
		reply, err := r.bridge.Reply(op.r.self, f.pkt)
		if err != nil {
			panic(fmt.Sprintf("rmc%d: bulk reply bridge failed: %v", r.self, err))
		}
		so := op.fsend[f.idx]
		so.deliver = op.frameDeliverFn
		op.send(r, f.at, so, hnc.Seal(reply), op.r)
	case frameCopyData:
		frame, err := r.bridge.Outbound(f.pkt)
		if err != nil {
			panic(fmt.Sprintf("rmc%d: bulk outbound bridge failed: %v", r.self, err))
		}
		so := op.fsend[f.idx]
		so.deliver = op.wrDeliverFn
		op.send(r, f.at, so, hnc.Seal(frame), op.wrServer)
	case frameLocalCopy:
		r.applyBulkWrite(f.at, f.pkt, op)
	}
	r.putBulkFrame(f)
	op.landed()
}

// frameDelivered runs at the client when one read data frame arrives.
func (op *bulkOp) frameDelivered(t sim.Time, s hnc.Sealed) {
	r := op.r
	if op.completed {
		return
	}
	if _, err := r.verif.AcceptLoose(s); err != nil {
		if r.inj != nil {
			return
		}
		panic(fmt.Sprintf("rmc%d: bulk frame integrity failed: %v", r.self, err))
	}
	pay := s.Frame.Payload
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
func (r *RMC) serveBulkWriteFrame(now sim.Time, sealed hnc.Sealed, op *bulkOp) {
	frame, err := r.verif.AcceptLoose(sealed)
	if err != nil {
		if r.inj != nil {
			return
		}
		panic(fmt.Sprintf("rmc%d: bulk frame integrity failed: %v", r.self, err))
	}
	local, err := r.bridge.Inbound(frame)
	if err != nil {
		panic(fmt.Sprintf("rmc%d: bulk inbound bridge failed: %v", r.self, err))
	}
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
		if !r.protection.Allowed(frame.Src, rng) {
			r.Aborted++
			op.srvAborted = true
			r.sendBulkAck(serviced, op, true)
			return
		}
	}
	r.applyBulkWrite(serviced, local, op)
}

// applyBulkWrite performs one frame's timed per-line bank accesses and
// the functional store write, then sends the cumulative ack once every
// frame of the burst has landed.
func (r *RMC) applyBulkWrite(now sim.Time, local ht.Packet, op *bulkOp) {
	memDone := now
	for l := 0; l < local.Count/params.CacheLineSize; l++ {
		t, err := r.bank.Access(now, local.Addr+addr.Phys(l*params.CacheLineSize), true)
		if err != nil {
			panic(fmt.Sprintf("rmc%d: bulk memory access failed: %v", r.self, err))
		}
		if t > memDone {
			memDone = t
		}
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
	reply, err := r.bridge.Reply(op.r.self, rsp)
	if err != nil {
		panic(fmt.Sprintf("rmc%d: bulk reply bridge failed: %v", r.self, err))
	}
	op.send(r, now, &op.ack, hnc.Seal(reply), op.r)
}

// ackDelivered runs at the client when the cumulative ack arrives.
func (op *bulkOp) ackDelivered(t sim.Time, s hnc.Sealed) {
	r := op.r
	if op.completed {
		return
	}
	if _, err := r.verif.AcceptLoose(s); err != nil {
		if r.inj != nil {
			return
		}
		panic(fmt.Sprintf("rmc%d: bulk ack integrity failed: %v", r.self, err))
	}
	if s.Frame.Payload.Cmd == ht.CmdTgtAbort {
		op.complete(t, &AbortError{Dst: s.Frame.Src})
		return
	}
	op.complete(t, nil)
}

// ensureBulkMetrics registers the bulk metric families on first use, so
// runs that never issue a burst snapshot byte-identically to builds
// without the bulk plane.
func (r *RMC) ensureBulkMetrics() {
	if r.bulkLat != nil {
		return
	}
	m := r.eng.Metrics()
	node := metrics.L("node", fmt.Sprintf("%d", r.self))
	m.CounterFunc(metrics.FamRMCBulkBursts, "bulk bursts submitted at this node", node, func() uint64 { return r.BulkBursts })
	m.CounterFunc(metrics.FamRMCBulkLines, "cache lines moved by bulk bursts", node, func() uint64 { return r.BulkLines })
	m.CounterFunc(metrics.FamRMCBulkFrames, "multi-line data frames of bulk bursts", node, func() uint64 { return r.BulkDataFrames })
	m.CounterFunc(metrics.FamRMCBulkCopies, "region-to-region DMA copies submitted", node, func() uint64 { return r.BulkCopies })
	r.bulkLat = m.Histogram(metrics.FamRMCBulkLatency, "bulk burst completion time", node, metrics.TimeBuckets())
}

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
