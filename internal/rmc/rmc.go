// Package rmc implements the paper's core contribution: the Remote
// Memory Controller. The RMC is presented to the node's processors as a
// HyperTransport I/O unit claiming every prefixed physical address. In
// the client role it bridges local HT requests into HNC-HT frames and
// forwards them to the node named by the address's 14 most-significant
// bits; in the server role it zeroes those bits and replays the request
// into its local memory system, then returns the response. There is no
// translation table anywhere — the address prefix *is* the route — which
// is what keeps the RMC simple and its message-processing overhead small.
//
// Two deliberate prototype limitations are modeled because the paper's
// evaluation hinges on them:
//
//   - Each RMC is a finite-rate store-and-forward engine (a FIFO service
//     occupancy), so it can congest (Figures 7 and 8).
//   - The client RMC has a tiny admission queue; requests that find it
//     full are NACKed and retried, consuming RMC capacity. Under a
//     high-rate close-by load this wastes cycles, which is why moving
//     memory servers *farther away* can slightly *improve* 4-thread
//     throughput (Figure 7's counterintuitive result).
//
// When the system runs a fault plan (package faults), the RMC also
// carries the recovery half the paper defers: every frame travels under
// a sender-side retransmission timer with capped exponential backoff,
// and a destination that stays unreachable past the retransmit budget
// fails the request with an UnreachableError instead of hanging the
// event loop.
package rmc

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/hnc"
	"repro/internal/ht"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// Peers resolves a node identifier to its RMC, letting the cluster wire
// RMCs together without a package cycle.
type Peers interface {
	RMC(n addr.NodeID) (*RMC, error)
}

// Fabric moves HNC frames between nodes. The prototype's 4×4 mesh
// (package mesh) is the reference implementation; the HT-over-Ethernet
// fabric the consortium was standardizing (package htoe) is another.
type Fabric interface {
	// DeliverOutcome carries wireBytes from src to dst starting at now
	// and reports what happened to the frame: its arrival time and hop
	// count, and — under a fault plan — whether it was dropped,
	// corrupted, or found no route.
	DeliverOutcome(now sim.Time, src, dst addr.NodeID, wireBytes int) faults.Outcome
	// DeliverExpress uses a dedicated point-to-point link where the
	// fabric has one; it errors where it does not.
	DeliverExpress(now sim.Time, src, dst addr.NodeID, wireBytes int) (sim.Time, error)
}

// UnreachableError reports that a request was abandoned because its
// destination stayed unreachable past the retransmit budget — the typed
// graceful-degradation failure of a faulted fabric.
type UnreachableError struct {
	Dst      addr.NodeID
	Attempts int
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("rmc: node %d unreachable after %d transmission attempts", e.Dst, e.Attempts)
}

// RMC is one node's remote memory controller (both roles).
type RMC struct {
	self   addr.NodeID
	eng    *sim.Engine
	p      params.Params
	bridge *hnc.Bridge
	peers  Peers
	inj    *faults.Injector // nil without a fault plan

	// exch is the shard's barrier exchange: every transmission becomes
	// an intent drained at the shard barrier in canonical
	// (time, src, seq) order (see exchange.go). nowFn supplies the
	// cluster-level clock for utilization gauges (a shard's own clock
	// stops at its last local event, which would skew post-run
	// utilization under K > 1).
	exch    *Exchange
	nowFn   func() sim.Time
	xmitSeq uint64

	// client is the bounded admission queue + bridging occupancy of the
	// requester role; server is the FIFO service of the target role.
	client *sim.Resource
	server *sim.Resource

	// bank and store are the node's local memory system: bank times
	// every access this RMC serves, and store holds the bytes only the
	// bulk plane moves.
	bank  *dram.Bank
	store *mem.Store

	// protection, when set, is consulted before serving a remote
	// request: the security component the paper defers. Denied requests
	// are answered with Target Abort instead of data.
	protection Protection

	// verif tracks frame integrity (CRC + per-peer sequencing) for
	// traffic arriving at this node; lat records remote round trips.
	verif *hnc.Verifier
	lat   *metrics.Histogram

	// Free lists for the reified request/serve continuations. They
	// recycle with or without a fault plan (see the recycling rule above
	// clientOp), so a remote load/store completes without allocating.
	// Each is touched only by events on this RMC's shard: a client op
	// completes on its requester's shard, and a serve op returns to its
	// pool before the server sends the reply.
	clientOps []*clientOp
	srvOps    []*srvOp

	// Bulk data plane (bulk.go): pooled burst continuations and the line
	// buffers that carry burst payloads, plus the burst latency
	// histogram, made on the first burst — nil bulkLat means this RMC
	// has never issued one and reports no bulk samples.
	bulkFreeOps []*bulkOp
	lineBufs    [][]byte
	bulkLat     *metrics.Histogram

	// Stats.
	Requests    uint64 // remote requests submitted at this node
	Forwarded   uint64 // requests bridged out of this node
	Retries     uint64 // NACKed admissions at the client queue
	ServedHere  uint64 // requests served by this node's memory
	LoopbackOps uint64 // loopback-mode operations (legal, normally unused)
	Aborted     uint64 // requests denied by the protection check

	// Recovery stats (all zero without a fault plan).
	Retransmits uint64 // frames resent after a drop/corruption/outage
	Abandoned   uint64 // requests failed after the retransmit budget
	StormNACKs  uint64 // admissions refused by a scheduled NACK storm
	Stalls      uint64 // scheduled server-stall windows applied

	// Bulk stats (all zero — and unreported — without bulk traffic).
	BulkBursts     uint64 // bursts submitted at this node
	BulkLines      uint64 // cache lines moved by bursts
	BulkDataFrames uint64 // multi-line data frames those bursts used
	BulkCopies     uint64 // region-to-region DMA copies submitted
}

// Protection decides whether a remote node may touch a local range —
// the OS wires it to its grant table, so nodes can only reach memory
// actually reserved for them.
type Protection interface {
	// Allowed reports whether requester may access the local range.
	Allowed(requester addr.NodeID, local addr.Range) bool
}

// SetProtection installs (or clears, with nil) the access-control hook.
// The prototype runs without one, as the paper's did.
func (r *RMC) SetProtection(p Protection) { r.protection = p }

// Config carries the dependencies an RMC needs.
type Config struct {
	Self   addr.NodeID
	Params params.Params
	Peers  Peers
	Bank   *dram.Bank
	Store  *mem.Store
	// Faults, when non-nil, arms the recovery machinery (retransmit,
	// NACK storms, stall windows). The injector is shared with the
	// fabric so the whole system replays one fault stream.
	Faults *faults.Injector
	// Exch is the barrier exchange of the shard the RMC runs on
	// (ExchangeSet.Shard); every transmission goes through it, and the
	// RMC's events run on its engine, and its frames cross the fabric
	// the exchange set's barrier replays walk.
	Exch *Exchange
	// Now, when non-nil, overrides the clock used by snapshot-time
	// utilization gauges (the cluster passes the shard set's max clock).
	Now func() sim.Time
}

// New builds a node's RMC.
func New(c Config) (*RMC, error) {
	if c.Exch == nil || c.Peers == nil || c.Bank == nil || c.Store == nil {
		return nil, fmt.Errorf("rmc: incomplete configuration")
	}
	b, err := hnc.NewBridge(c.Self)
	if err != nil {
		return nil, err
	}
	v, err := hnc.NewVerifier(c.Self)
	if err != nil {
		return nil, err
	}
	eng := c.Exch.eng
	r := &RMC{
		self:   c.Self,
		eng:    eng,
		p:      c.Params,
		bridge: b,
		peers:  c.Peers,
		inj:    c.Faults,
		exch:   c.Exch,
		nowFn:  c.Now,
		client: sim.NewResource(c.Params.RMCQueueDepth),
		server: sim.NewResource(0),
		bank:   c.Bank,
		store:  c.Store,
		verif:  v,
		lat:    metrics.NewHistogram(metrics.TimeBuckets()),
	}
	if r.nowFn == nil {
		r.nowFn = eng.Now
	}
	c.Exch.set.rmcs = append(c.Exch.set.rmcs, r)
	return r, nil
}

// register adds the families of every RMC sending through the set, each
// enumerated at snapshot time from tallies the RMCs keep; the only
// per-event instruments are the round-trip and burst histograms each
// RMC owns. Recovery samples come only from RMCs armed with a fault
// plan, and burst samples only from RMCs that issued a burst, so
// fault-free and burst-free snapshots are unchanged by those layers.
func (es *ExchangeSet) register(m *metrics.Registry) {
	node := []string{"node"}
	all := func(*RMC) bool { return true }
	faulted := func(r *RMC) bool { return r.inj != nil }
	bursted := func(r *RMC) bool { return r.bulkLat != nil }
	counter := func(name, help string, when func(*RMC) bool, v func(*RMC) uint64) {
		m.Counters(name, help, node, func(e *metrics.Emitter) {
			for _, r := range es.rmcs {
				if when(r) {
					e.Value(float64(v(r)), e.Itoa(int(r.self)))
				}
			}
		})
	}
	gauge := func(name, help string, v func(*RMC) float64) {
		m.Gauges(name, help, node, func(e *metrics.Emitter) {
			for _, r := range es.rmcs {
				e.Value(v(r), e.Itoa(int(r.self)))
			}
		})
	}
	histogram := func(name, help string, h func(*RMC) *metrics.Histogram) {
		m.Histograms(name, help, node, func(e *metrics.Emitter) {
			for _, r := range es.rmcs {
				if h(r) != nil {
					e.Histogram(h(r), e.Itoa(int(r.self)))
				}
			}
		})
	}
	counter(metrics.FamRMCRequests, "remote requests submitted at this node", all, func(r *RMC) uint64 { return r.Requests })
	counter(metrics.FamRMCRetries, "NACKed admissions at the client queue", all, func(r *RMC) uint64 { return r.Retries })
	counter(metrics.FamRMCForwarded, "requests bridged out of this node", all, func(r *RMC) uint64 { return r.Forwarded })
	counter(metrics.FamRMCServedLocal, "requests served by this node's memory", all, func(r *RMC) uint64 { return r.ServedHere })
	counter(metrics.FamRMCLoopback, "loopback-mode operations", all, func(r *RMC) uint64 { return r.LoopbackOps })
	counter(metrics.FamRMCAborted, "requests denied by the protection check", all, func(r *RMC) uint64 { return r.Aborted })
	gauge(metrics.FamRMCClientUtil, "client-role occupancy fraction", func(r *RMC) float64 { return r.client.Utilization(r.nowFn()) })
	gauge(metrics.FamRMCServerUtil, "server-role occupancy fraction", func(r *RMC) float64 { return r.server.Utilization(r.nowFn()) })
	counter(metrics.FamHNCFrames, "sealed frames accepted at this node", all, func(r *RMC) uint64 { return r.verif.Received })
	counter(metrics.FamHNCSeqGaps, "dropped-frame gaps observed", all, func(r *RMC) uint64 { return r.verif.Gaps })
	counter(metrics.FamHNCRegressions, "reordered or replayed frames observed", all, func(r *RMC) uint64 { return r.verif.Regressions })
	counter(metrics.FamHNCCRCFailures, "frames failing the CRC check", all, func(r *RMC) uint64 { return r.verif.Corrupt })
	counter(metrics.FamRMCRetransmits, "frames resent after a drop, corruption, or outage", faulted, func(r *RMC) uint64 { return r.Retransmits })
	counter(metrics.FamRMCAbandoned, "requests abandoned after the retransmit budget", faulted, func(r *RMC) uint64 { return r.Abandoned })
	counter(metrics.FamRMCStormNACKs, "admissions refused by a scheduled NACK storm", faulted, func(r *RMC) uint64 { return r.StormNACKs })
	counter(metrics.FamRMCStalls, "scheduled server-stall windows applied", faulted, func(r *RMC) uint64 { return r.Stalls })
	histogram(metrics.FamRMCLatency, "remote request round-trip time", func(r *RMC) *metrics.Histogram { return r.lat })
	counter(metrics.FamRMCBulkBursts, "bulk bursts submitted at this node", bursted, func(r *RMC) uint64 { return r.BulkBursts })
	counter(metrics.FamRMCBulkLines, "cache lines moved by bulk bursts", bursted, func(r *RMC) uint64 { return r.BulkLines })
	counter(metrics.FamRMCBulkFrames, "multi-line data frames of bulk bursts", bursted, func(r *RMC) uint64 { return r.BulkDataFrames })
	counter(metrics.FamRMCBulkCopies, "region-to-region DMA copies submitted", bursted, func(r *RMC) uint64 { return r.BulkCopies })
	histogram(metrics.FamRMCBulkLatency, "bulk burst completion time", func(r *RMC) *metrics.Histogram { return r.bulkLat })
}

// ClientUtilization returns the client-role occupancy fraction.
func (r *RMC) ClientUtilization(elapsed sim.Time) float64 { return r.client.Utilization(elapsed) }

// ServerUtilization returns the server-role occupancy fraction.
func (r *RMC) ServerUtilization(elapsed sim.Time) float64 { return r.server.Utilization(elapsed) }

// StallServer consumes the server role's capacity for d — the scheduled
// node-stall fault. Requests already queued (and any that arrive during
// the window) wait it out behind the stall.
func (r *RMC) StallServer(now sim.Time, d sim.Time) {
	r.Stalls++
	r.server.Penalize(now, d)
}

// The continuation structs below reify the per-access closure chains.
// Each op is allocated once, its callbacks bound once (the closures
// capture only the op pointer), and then recycled through a per-RMC
// free list — so a steady-state remote load/store schedules
// every event through prebound funcs and completes without allocating.
// A client op carries the send ops of both frames of its round trip,
// and a burst those of all its frames, bound with it, so a send draws
// nothing from a pool either.
//
// Recycling rule: every op sees exactly one clean delivery per frame it
// owns — a transmission attempt's outcomes are mutually exclusive
// (Delivered ends the chain; Corrupted/Dropped arm a retransmit), and an
// injector-mangled duplicate can never pass the CRC, so it is verified
// and discarded by acceptMangled without ever touching the op that sent
// it. Ops and the bulk plane's line buffers therefore recycle under a
// fault plan too: the mangled duplicate — the one frame that outlives
// its op's buffer ownership — carries its own copy of the payload (see
// completeSend), so a recycled buffer is never read after its burst
// completed.

// admission is the client-queue state a request or a burst carries
// through NACK backoff: its attempt count, the instant client service
// ends, and the prebound retry and launch continuations.
type admission struct {
	attempt  uint
	serviced sim.Time
	retryFn  func()
	launchFn func()
}

// clientOp is the requester role's continuation: admission (with NACK
// backoff), launch onto the fabric, and final completion. It owns both
// frames of its round trip: the request it sends, and the reply the
// serving RMC seals into it and sends back. The two roles share only
// those frames.
type clientOp struct {
	admission
	r       *RMC
	pkt     ht.Packet
	express bool
	issued  sim.Time
	peer    *RMC // the serving RMC; r itself for a loopback address
	done    func(sim.Time, ht.Packet, error)
	send    sendOp // the request frame
	reply   sendOp // the response frame, sealed and sent by peer
}

func (r *RMC) getClientOp() *clientOp {
	if n := len(r.clientOps); n > 0 {
		op := r.clientOps[n-1]
		r.clientOps = r.clientOps[:n-1]
		return op
	}
	op := &clientOp{r: r}
	op.retryFn = func() { op.r.admit(op.r.eng.Now(), &op.admission) }
	op.launchFn = func() { op.r.launch(op) }
	op.send.bind(func(t sim.Time, s *hnc.Sealed) { op.peer.serve(t, s, op) }, func(t sim.Time, attempts int) {
		op.finish(t, ht.Packet{}, &UnreachableError{Dst: op.pkt.Addr.Node(), Attempts: attempts})
	}, r.exch)
	op.reply.bind(func(t sim.Time, s *hnc.Sealed) {
		// Only the one clean arrival of the reply frame reaches this
		// callback (mangled duplicates go through acceptMangled), so
		// the op is live here by construction.
		op.r.accept(s)
		op.finish(t, s.Frame.Payload, nil)
	}, func(t sim.Time, attempts int) {
		// The requester became unreachable for the response: fail the
		// request instead of leaving the issuer hanging.
		op.finish(t, ht.Packet{}, &UnreachableError{Dst: op.r.self, Attempts: attempts})
	}, r.exch)
	return op
}

func (r *RMC) putClientOp(op *clientOp) {
	op.pkt = ht.Packet{}
	op.peer = nil
	op.done = nil
	op.send.release()
	op.reply.release()
	r.clientOps = append(r.clientOps, op)
}

// finish completes the request: observe the round trip, reclaim the op,
// and hand the response to the caller.
func (op *clientOp) finish(t sim.Time, rsp ht.Packet, err error) {
	r := op.r
	if err == nil {
		// Abandoned requests never round-tripped; only completions
		// feed the latency histogram.
		r.lat.Observe(t - op.issued)
	}
	done := op.done
	r.putClientOp(op)
	done(t, rsp, err)
}

// Request submits a memory request whose address carries a node prefix.
// done is invoked exactly once, at the simulated completion time, with
// the response packet: a RdResponse, a TgtDone, or a TgtAbort from the
// protection check. The scalar path times an access and moves no bytes:
// a packet carrying Data is refused, and no response carries any (bytes
// move through RequestBulk or the functional store). Under a fault plan
// a request whose destination stays unreachable past the retransmit
// budget completes with a zero packet and an *UnreachableError; without
// a plan err is always nil. express routes both directions over a
// dedicated express link (Figure 8's control setup) instead of the mesh.
func (r *RMC) Request(now sim.Time, pkt ht.Packet, express bool, done func(sim.Time, ht.Packet, error)) error {
	if err := pkt.Validate(); err != nil {
		return err
	}
	if !pkt.Cmd.IsRequest() {
		return fmt.Errorf("rmc: %v is not a request", pkt.Cmd)
	}
	if pkt.Data != nil {
		return fmt.Errorf("rmc: %v carries %d data bytes; the scalar path moves none (use RequestBulk)", pkt.Cmd, len(pkt.Data))
	}
	dst := pkt.Addr.Node()
	if dst == 0 {
		return fmt.Errorf("rmc: address %v is local; the BARs should have routed it to a memory controller", pkt.Addr)
	}
	peer, err := r.peer(dst)
	if err != nil {
		return err
	}
	r.Requests++
	op := r.getClientOp()
	op.pkt, op.peer, op.express, op.done = pkt, peer, express, done
	op.attempt, op.issued = 0, now
	r.admit(now, &op.admission)
	return nil
}

// peer resolves the RMC serving node dst — r itself for a loopback
// address. Requests resolve their peer once, here, at issue: every frame
// then carries its destination RMC, so nothing downstream looks it up.
func (r *RMC) peer(dst addr.NodeID) (*RMC, error) {
	if dst == r.self {
		return r, nil
	}
	return r.peers.RMC(dst)
}

// admit tries to enter the client queue, retrying on NACK with capped
// exponential backoff. A burst enters once for all its lines — the
// doorbell amortization. The backoff matters: a requester retrying at a
// fixed interval against a full queue would waste RMC capacity faster
// than the RMC serves, and nothing would ever complete.
func (r *RMC) admit(now sim.Time, a *admission) {
	if r.inj.NackStorm(r.self, int64(now)) {
		// A scheduled NACK storm: the client RMC refuses every admission
		// as if its queue were wedged full. Same waste, same backoff —
		// progress resumes when the window closes.
		r.StormNACKs++
		r.nack(now, a)
		return
	}
	serviced, ok := r.client.Acquire(now, r.p.RMCClientOccupancy)
	if !ok {
		r.nack(now, a)
		return
	}
	r.Forwarded++
	a.serviced = serviced
	r.eng.At(serviced, a.launchFn)
}

// nack charges the NACK-processing waste and schedules the reissue.
func (r *RMC) nack(now sim.Time, a *admission) {
	r.Retries++
	r.client.Penalize(now, r.p.RMCRetryWaste)
	backoff := r.p.RMCRetryPenalty << min(a.attempt, 8)
	a.attempt++
	r.eng.After(backoff, a.retryFn)
}

// launch bridges the packet onto the fabric once client service is done.
func (r *RMC) launch(op *clientOp) {
	now := op.serviced
	if op.peer == r {
		// Loopback mode: the paper notes the overlapped segment exists
		// but is never used in practice; the hardware would replay the
		// request into its own local system, so we do.
		r.LoopbackOps++
		r.serveLocal(now, op)
		return
	}
	r.seal(&op.send, &op.pkt)
	r.sendSealed(now, &op.send, op.peer, op.express)
}

// seal bridges a prefixed request onto the wire: the bridge validates
// pkt, builds its frame in so's slot and seals it there. Frames travel
// sealed: the CRC rides in the existing HeaderBytes budget, so link
// timing (and the paper calibration) is unchanged. The bridge fails
// only on packets the RMC never builds, so a failure is a model bug.
func (r *RMC) seal(so *sendOp, pkt *ht.Packet) {
	if err := r.bridge.SealRequest(&so.s, pkt); err != nil {
		panic(fmt.Sprintf("rmc%d: outbound bridge failed: %v", r.self, err))
	}
}

// sealReply bridges a response back to node to, built and sealed in
// so's slot.
func (r *RMC) sealReply(so *sendOp, to addr.NodeID, pkt *ht.Packet) {
	if err := r.bridge.SealReply(&so.s, to, pkt); err != nil {
		panic(fmt.Sprintf("rmc%d: reply bridge failed: %v", r.self, err))
	}
}

// accept runs this RMC's integrity check on a response frame arriving
// here, loosely: sequence anomalies are counted, not refused. Only a
// clean delivery reaches it — an injected corruption arrives as the
// mangled duplicate, which acceptMangled checks — so a failure is a
// model bug (a buffer recycled while its frame was in flight, say)
// under any fault plan, and panics.
func (r *RMC) accept(s *hnc.Sealed) {
	if err := r.verif.Accept(s); err != nil {
		panic(fmt.Sprintf("rmc%d: frame integrity failed: %v", r.self, err))
	}
}

// receive runs accept's check on a request frame and decapsulates it in
// the same step into local: the packet to replay into the local system,
// with the node prefix checked and zeroed. A failure is a model bug, as
// in accept.
func (r *RMC) receive(s *hnc.Sealed, local *ht.Packet) {
	if err := r.verif.Receive(s, local); err != nil {
		panic(fmt.Sprintf("rmc%d: frame integrity failed: %v", r.self, err))
	}
}

// sendOp is one sealed frame's journey under the retransmission
// discipline: the frame, its destination RMC, its attempt count, and the
// delivery and abandon callbacks, carried across timer events without a
// fresh closure per attempt. A send op belongs to the op whose frame it
// carries and is bound once with it. Each attempt copies what a clean
// delivery's replay reads into its intent (see xmit), so the barrier
// never loads the send op for one. The delivery event the barrier posts
// fires straight from it and reads its arrival time from the
// destination engine's clock: nothing else touches the send op until
// its owner sends again, and that needs this delivery first.
//
// The frame is sealed into s and stays there until it is verified: the
// delivery callback receives &s and reads the frame in place. That
// pointer is valid only until the callback returns — the owning op may
// recycle right after, and release zeroes s — so a receiver copies what
// it keeps (serve keeps the decapsulated packet, not the frame).
type sendOp struct {
	r       *RMC // the sending RMC
	dst     *RMC
	s       hnc.Sealed
	express bool
	wire    int32
	n       int
	deliver func(sim.Time, *hnc.Sealed)
	abandon func(sim.Time, int)
	// owner is the exchange of the shard that owns the abandon
	// continuation: the requester's shard for every frame, since every
	// send op belongs to a client op or a burst and is bound on the
	// requesting RMC.
	owner *Exchange

	attemptFn func()
	fireFn    func()
}

// bind prebinds the send op's retransmission timer and delivery event
// and installs its continuations; call it once, when the owning op is
// built.
func (so *sendOp) bind(deliver func(sim.Time, *hnc.Sealed), abandon func(sim.Time, int), owner *Exchange) {
	so.deliver, so.abandon, so.owner = deliver, abandon, owner
	so.attemptFn = func() { so.r.sendAttempt(so.r.eng.Now(), so) }
	so.fireFn = func() { so.deliver(so.dst.eng.Now(), &so.s) }
}

// release drops the send op's references to its last frame and peer
// when the owning op returns to its pool.
func (so *sendOp) release() {
	so.s = hnc.Sealed{}
	so.dst = nil
}

// sendSealed pushes the frame sealed into so from r toward dst, under
// the retransmission discipline. Delivered and corrupted frames arrive
// (the latter with a mangled CRC the receiver will reject); every
// non-clean outcome arms a resend after RetransmitTimeout with capped
// exponential backoff, until the budget runs out and abandon fires. On a
// fault-free fabric the frame is simply delivered — one arrival event,
// exactly as before the fault layer existed.
func (r *RMC) sendSealed(now sim.Time, so *sendOp, dst *RMC, express bool) {
	so.r, so.dst, so.express = r, dst, express
	so.wire, so.n = int32(so.s.Frame.WireBytes()), 0
	r.sendAttempt(now, so)
}

// sendAttempt transmits one attempt by recording the intent on the
// shard's exchange, with everything a clean delivery's replay reads;
// the coordinator replays all intents through completeSend at the
// barrier in canonical (time, src, seq) order, so link acquisition and
// the injector's roll stream are consumed in an order that is a pure
// function of simulated state — identical at any shard count.
func (r *RMC) sendAttempt(now sim.Time, op *sendOp) {
	r.xmitSeq++
	r.exch.record(xmit{
		t: now, seq: r.xmitSeq, op: op, to: op.dst.exch, fire: op.fireFn,
		wire: op.wire, shard: r.exch.idx, src: r.self, dst: op.dst.self, express: op.express,
	})
}

// completeSend walks the fabric for intent m and posts its
// consequences. It runs on the coordinator with every shard parked, so
// it may touch any shard's engine and fabric state. A clean delivery
// reads only the intent; the send op, the sending RMC and the injector
// are read only for a frame that is dropped, corrupted or abandoned.
func (es *ExchangeSet) completeSend(m *xmit) {
	if es.trace != nil {
		es.trace(m.t, m.src, m.dst, m.seq)
	}
	out := es.deliverOutcome(m)
	switch out.Status {
	case faults.Delivered:
		// The lookahead window is no longer than the minimum link
		// latency, so the arrival lands at or past the window limit — in
		// the destination shard's future. The horizon observed is
		// arrival minus send time.
		m.to.schedule(m, sim.Time(out.Arrive), m.fire)
	case faults.Corrupted:
		// The mangled copy still arrives — the receiver's CRC check
		// counts and discards it — and the sender, hearing nothing,
		// retransmits. Fault-only path; the closure captures everything
		// by value, so it never touches the (recyclable) op. A burst
		// frame's payload is deep-copied: the duplicate outlives the op's
		// ownership of the original buffer (the retransmitted burst may
		// complete and recycle it before the duplicate's CRC check reads
		// it), and this rare per-corruption allocation is what lets every
		// line buffer recycle under an armed fault plan. The closure
		// verifies a copy on its own stack: taking the captured
		// duplicate's address would move it to a heap object of its own,
		// a second allocation.
		op, r := m.op, m.op.r
		mangled := hnc.Sealed{Frame: op.s.Frame, CRC: r.inj.MangleCRC(op.s.CRC)}
		if d := op.s.Frame.Payload.Data; d != nil {
			mangled.Frame.Payload.Data = append([]byte(nil), d...)
		}
		dst := op.dst
		m.to.schedule(m, sim.Time(out.Arrive), func() {
			s := mangled
			dst.acceptMangled(&s)
		})
		r.resend(m)
	default: // Dropped, Unreachable
		m.op.r.resend(m)
	}
}

// acceptMangled runs the receiver-side integrity check on a frame the
// injector corrupted in flight: the verifier counts and discards it. A
// mangled frame can never pass the CRC, so it never reaches the op that
// sent it — which is what lets ops recycle under a fault plan.
func (r *RMC) acceptMangled(s *hnc.Sealed) {
	if err := r.verif.Accept(s); err != nil {
		return
	}
	panic(fmt.Sprintf("rmc%d: injector-mangled frame passed the CRC check", r.self))
}

// resend arms the retransmission timer for intent m's send op, or
// abandons once the budget is spent.
func (r *RMC) resend(m *xmit) {
	op, now := m.op, m.t
	if op.n >= r.p.RetransmitBudget {
		r.Abandoned++
		// The abandon continuation belongs to the requester's shard;
		// running at the barrier, hand it to that engine one retransmit
		// timeout after the final attempt — a pure function of simulated
		// state (unlike the window limit, which depends on the barrier
		// schedule), and never in the owner's past: limits are capped at
		// the global minimum plus the timeout while a plan is armed.
		ab, attempts, at := op.abandon, op.n+1, now+r.p.RetransmitTimeout
		op.owner.schedule(m, at, func() { ab(at, attempts) })
		return
	}
	r.Retransmits++
	shift := uint(op.n)
	if shift > r.p.RetransmitBackoffCap {
		shift = r.p.RetransmitBackoffCap
	}
	wait := r.p.RetransmitTimeout << shift
	op.n++
	// Timer on the sender's shard. Every replayed send time is at or
	// past the global minimum G of its scheduling round, and window
	// limits are capped at G + RetransmitTimeout while a plan is armed,
	// so the wake-up is in the shard's future.
	r.exch.schedule(m, now+wait, op.attemptFn)
}

// deliverOutcome routes intent m's frame over the chosen path. Express
// links are dedicated cables outside the fault plan; mesh/switch
// traffic goes through the fabric's fault-aware delivery.
func (es *ExchangeSet) deliverOutcome(m *xmit) faults.Outcome {
	if m.express {
		t, err := es.fabric.DeliverExpress(m.t, m.src, m.dst, int(m.wire))
		if err != nil {
			panic(fmt.Sprintf("rmc%d: express deliver failed: %v", m.src, err))
		}
		return faults.Outcome{Arrive: int64(t), Status: faults.Delivered}
	}
	return es.fabric.DeliverOutcome(m.t, m.src, m.dst, int(m.wire))
}

// srvOp is the server role's continuation: protection check and memory
// access across the serviced/memDone events, on behalf of client op c.
// It holds no frame of its own: the response is sealed into c's reply
// send op, and the op returns to its pool before the reply leaves, so
// only events on this RMC's shard ever touch it.
type srvOp struct {
	r        *RMC
	c        *clientOp
	local    ht.Packet
	abort    bool
	serviced sim.Time
	memDone  sim.Time
	rsp      ht.Packet

	serviceFn func()
	respondFn func()
}

func (r *RMC) getSrvOp() *srvOp {
	if n := len(r.srvOps); n > 0 {
		op := r.srvOps[n-1]
		r.srvOps = r.srvOps[:n-1]
		return op
	}
	op := &srvOp{r: r}
	op.serviceFn = func() { op.service() }
	op.respondFn = func() { op.respond() }
	return op
}

func (r *RMC) putSrvOp(op *srvOp) {
	op.c = nil
	op.local, op.rsp = ht.Packet{}, ht.Packet{}
	r.srvOps = append(r.srvOps, op)
}

// serve handles client op c's request frame arriving from the fabric:
// verify integrity (loosely — sequence anomalies are counted, not
// refused), decapsulate (zero the prefix), check protection, and queue
// through the server occupancy.
func (r *RMC) serve(now sim.Time, sealed *hnc.Sealed, c *clientOp) {
	op := r.getSrvOp()
	r.receive(sealed, &op.local)
	rng := addr.Range{Start: op.local.Addr, Size: uint64(op.local.Count)}
	op.abort = r.protection != nil && !r.protection.Allowed(sealed.Frame.Src, rng)
	if op.abort {
		r.Aborted++
	}
	r.queue(now, op, c)
}

// serveLocal runs the server path for a loopback request, without the
// fabric.
func (r *RMC) serveLocal(now sim.Time, c *clientOp) {
	op := r.getSrvOp()
	op.local, op.abort = c.pkt, false
	op.local.Addr = c.pkt.Addr.Local()
	r.queue(now, op, c)
}

// queue puts op, serving c, through the server occupancy.
func (r *RMC) queue(now sim.Time, op *srvOp, c *clientOp) {
	op.c = c
	op.serviced, _ = r.server.Acquire(now, r.p.RMCServerOccupancy)
	r.eng.At(op.serviced, op.serviceFn)
}

// service runs at the serviced instant: answer a protection denial with
// Target Abort at once, otherwise perform the local memory access.
func (op *srvOp) service() {
	if op.abort {
		op.rsp, op.memDone = op.local.Abort(), op.serviced
		op.respond()
		return
	}
	op.r.access(op)
}

// access performs the timed local memory access and builds the
// payload-less response, sent at memDone.
func (r *RMC) access(op *srvOp) {
	r.ServedHere++
	memDone, err := r.bank.Access(op.serviced, op.local.Addr, op.local.Cmd == ht.CmdWrSized)
	if err != nil {
		panic(fmt.Sprintf("rmc%d: local memory access failed: %v", r.self, err))
	}
	op.rsp, op.memDone = op.local.Response(), memDone
	r.eng.At(memDone, op.respondFn)
}

// respond returns the op to its pool, then completes a loopback request
// directly, or seals the response into the client op's reply frame and
// sends it back under the same retransmission discipline as the request
// leg.
func (op *srvOp) respond() {
	r, c, t, rsp := op.r, op.c, op.memDone, op.rsp
	r.putSrvOp(op)
	if c.r == r {
		c.finish(t, rsp, nil)
		return
	}
	r.sealReply(&c.reply, c.r.self, &rsp)
	r.sendSealed(t, &c.reply, c.r, c.express)
}
