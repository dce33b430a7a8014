package rmc

import (
	"cmp"
	"slices"

	"repro/internal/addr"
	"repro/internal/hnc"
	"repro/internal/sim"
)

// The windowed exchange is the cross-shard half of the conservative PDES
// engine (DESIGN §16). An RMC's sendAttempt never walks the fabric; it
// appends a transmission intent to its shard's Exchange — at every
// shard count, one included. At every window barrier the coordinator —
// with all shards parked — merges the intents of every shard, sorts
// them by (time, source node, per-source sequence), and replays those
// below the barrier's replay horizon through completeSend, holding the
// rest for a later barrier. The horizon guarantees no future intent can
// be recorded below it, so the replayed prefix extends one canonical
// stream — a pure function of simulated state — and link occupancies
// and the fault injector's roll stream are consumed identically at any
// shard count and however the schedule cuts windows, which is what
// keeps figures byte-identical from -shards 1 to -shards N.
//
// Every per-shard window limit is bounded by the minimum cross-shard
// delivery bound of the lookahead matrix, so every delivery scheduled at
// the barrier lands at or past the destination shard's limit — strictly
// in its future. Barrier hand-offs (worker park/release atomics) carry
// the happens-before edges for the coordinator's reads of shard state.

// xmit is one recorded transmission intent. shard is the recording
// exchange's index: a held intent counts as pending work of its source
// shard, bounded into shard i by B[shard][i].
type xmit struct {
	t     sim.Time
	src   addr.NodeID
	seq   uint64
	shard int32
	op    *sendOp
}

// deferredSrv returns a server-role op to its owner's pool at the
// barrier (its final callback ran on the requester's shard).
type deferredSrv struct {
	r  *RMC
	op *srvOp
}

// deferredBuf returns a line buffer to another shard's pool.
type deferredBuf struct {
	r *RMC
	b []byte
}

// deliverEv is a pooled frame-delivery event. The coordinator fills one
// from the destination exchange's pool at the barrier; it recycles
// itself when it fires on the destination shard — the two phases are
// mutually exclusive, so the pool needs no synchronization.
type deliverEv struct {
	x       *Exchange
	deliver func(sim.Time, hnc.Sealed)
	arrive  sim.Time
	s       hnc.Sealed
	fireFn  func()
}

// Exchange is one shard's side of the windowed exchange: the intents its
// RMCs recorded this window, the cross-shard pool returns deferred to
// the barrier, and the shard's delivery-event pool.
type Exchange struct {
	eng     *sim.Engine
	idx     int32 // shard index within the set
	setSize int32 // engines in the owning set (>1: bulk bursts refuse to run)

	// selfBound, when positive, is B[idx][idx] of the lookahead matrix:
	// the minimum delivery bound of any frame this shard sends into
	// itself. Recording a send clamps the shard's running window to the
	// send time plus this bound, which is what lets the scheduler plan
	// windows past the shard's next event — until the shard actually
	// sends, nothing it does can deliver into itself, and the first
	// send pulls the limit back to exactly what remains provable.
	selfBound sim.Time

	// freshMin is the earliest intent in xmits — recorded since the last
	// Drain, not yet merged into the set's held suffix — or sim.MaxTime.
	// The set's Earliest must see these the moment the shard parks: the
	// replay horizon's cascade bound is derived from Earliest *before*
	// Drain merges, and a horizon blind to fresh intents could replay a
	// late intent ahead of an earlier one's not-yet-recorded response.
	freshMin sim.Time

	xmits  []xmit
	defSrv []deferredSrv
	defBuf []deferredBuf
	evs    []*deliverEv
}

// record holds one transmission intent for the next barrier drain and,
// when a self-delivery bound is installed, clamps the running window so
// the shard cannot outrun the send it just recorded.
func (x *Exchange) record(m xmit) {
	x.xmits = append(x.xmits, m)
	if m.t < x.freshMin {
		x.freshMin = m.t
	}
	if x.selfBound > 0 {
		x.eng.ClampWindow(m.t + x.selfBound)
	}
}

func (x *Exchange) getEv() *deliverEv {
	if n := len(x.evs); n > 0 {
		ev := x.evs[n-1]
		x.evs = x.evs[:n-1]
		return ev
	}
	ev := &deliverEv{x: x}
	ev.fireFn = func() {
		deliver, arrive, s := ev.deliver, ev.arrive, ev.s
		ev.x.putEv(ev)
		deliver(arrive, s)
	}
	return ev
}

func (x *Exchange) putEv(ev *deliverEv) {
	ev.deliver = nil
	ev.s = hnc.Sealed{}
	x.evs = append(x.evs, ev)
}

// ExchangeSet drains every shard's exchange at a window barrier: its
// Drain is the shard set's barrier hook and Earliest its intent source.
// held is the sorted suffix of intents past every horizon so far;
// heldMin[j] is the earliest held time attributable to source shard j
// (sim.MaxTime when none), the elision scheduler's view of in-flight
// cross-shard work.
type ExchangeSet struct {
	shards  []*Exchange
	held    []xmit
	heldMin []sim.Time
	trace   func(t sim.Time, src, dst addr.NodeID, seq uint64)
}

// NewExchangeSet builds one exchange per shard of set and installs Drain
// as the set's barrier hook and Earliest as its intent source.
func NewExchangeSet(set *sim.ShardSet) *ExchangeSet {
	k := set.Shards()
	es := &ExchangeSet{heldMin: make([]sim.Time, k)}
	for i := 0; i < k; i++ {
		es.shards = append(es.shards, &Exchange{eng: set.Engine(i), idx: int32(i), setSize: int32(k), freshMin: sim.MaxTime})
		es.heldMin[i] = sim.MaxTime
	}
	set.OnBarrier(es.Drain)
	set.SetIntentSource(es.Earliest)
	return es
}

// Shard returns shard i's exchange, the one every RMC on that shard's
// engine sends through.
func (es *ExchangeSet) Shard(i int) *Exchange { return es.shards[i] }

// Trace installs a hook invoked for every transmission in canonical
// drain order — the oracle tests compare these streams across shard
// counts.
func (es *ExchangeSet) Trace(fn func(t sim.Time, src, dst addr.NodeID, seq uint64)) {
	es.trace = fn
}

// Earliest returns the earliest recorded-but-not-yet-replayed
// transmission time attributable to shard j, or sim.MaxTime. It is the
// shard set's intent source (ShardSet.SetIntentSource) and covers both
// the held suffix of past drains and the intents shard j recorded in
// the window that just ran — the scheduler reads it at the barrier,
// before Drain merges those into held, and the replay horizon is only
// safe if every pending intent's delivery cascade bounds it.
func (es *ExchangeSet) Earliest(j int) sim.Time {
	if f := es.shards[j].freshMin; f < es.heldMin[j] {
		return f
	}
	return es.heldMin[j]
}

// SetSelfBounds installs each shard's own-shard delivery bound — the
// diagonal of the lookahead matrix — into its exchange, arming the
// record-time window clamp. Call it whenever the matrix is recomputed.
func (es *ExchangeSet) SetSelfBounds(bounds [][]sim.Time) {
	for i, x := range es.shards {
		x.selfBound = bounds[i][i]
	}
}

// Drain merges the freshly recorded intents into the held set, replays
// every intent with time strictly below horizon in canonical
// (time, source, sequence) order through the fabric, keeps the rest
// held, then applies the deferred cross-shard pool returns. It runs on
// the coordinator with all shards parked. Replays never record new
// intents (completeSend schedules deliveries and timers as events), so
// the sort is stable under replay.
func (es *ExchangeSet) Drain(horizon sim.Time) {
	for _, x := range es.shards {
		es.held = append(es.held, x.xmits...)
		x.xmits = x.xmits[:0]
		x.freshMin = sim.MaxTime // merged: whatever survives replay re-enters through heldMin
	}
	if len(es.held) > 1 {
		slices.SortFunc(es.held, func(a, b xmit) int {
			if c := cmp.Compare(a.t, b.t); c != 0 {
				return c
			}
			if c := cmp.Compare(a.src, b.src); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	n := 0
	for n < len(es.held) && es.held[n].t < horizon {
		m := &es.held[n]
		if es.trace != nil {
			es.trace(m.t, m.src, m.op.dst, m.seq)
		}
		m.op.r.completeSend(m.t, m.op)
		n++
	}
	if n > 0 {
		kept := copy(es.held, es.held[n:])
		clear(es.held[kept:])
		es.held = es.held[:kept]
	}
	for j := range es.heldMin {
		es.heldMin[j] = sim.MaxTime
	}
	for i := range es.held {
		m := &es.held[i]
		if m.t < es.heldMin[m.shard] {
			es.heldMin[m.shard] = m.t
		}
	}
	for _, x := range es.shards {
		for i, d := range x.defSrv {
			d.r.putSrvOp(d.op)
			x.defSrv[i] = deferredSrv{}
		}
		x.defSrv = x.defSrv[:0]
		for i, d := range x.defBuf {
			d.r.putLineBuf(d.b)
			x.defBuf[i] = deferredBuf{}
		}
		x.defBuf = x.defBuf[:0]
	}
}
