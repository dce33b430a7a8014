package rmc

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/sim"
)

// The windowed exchange is the cross-shard half of the conservative PDES
// engine (DESIGN §16). An RMC's sendAttempt never walks the fabric; it
// appends a transmission intent to its shard's Exchange — at every
// shard count, one included. Each shard keeps its intents sorted by
// (time, source node, per-source sequence) as it records them. At every
// window barrier the coordinator — with all shards parked — merges those
// runs with the intents held from earlier barriers, replays the ones
// below the barrier's replay horizon through completeSend, and holds the
// rest for a later barrier. A replay walks the frame's links and posts
// what follows — a delivery, a duplicate, a timer — to the engine it
// runs on; that shard pushes it onto its own heap when its next window
// opens. The horizon guarantees no future intent can be recorded below
// it, so the replayed prefix extends one canonical stream — a pure
// function of simulated state — and link occupancies and the fault
// injector's roll stream are consumed identically at any shard count
// and however the schedule cuts windows, which is what keeps figures
// byte-identical from -shards 1 to -shards N.
//
// Every per-shard window limit is planned from the lookahead matrix the
// cluster installs at every shard count, and clamped by the shard's own
// sends, so every delivery scheduled at the barrier lands at or past the
// destination shard's limit — strictly in its future. Barrier hand-offs
// (worker park/release atomics) carry the happens-before edges for the
// coordinator's reads of shard state and for each shard's reads of what
// the coordinator posted to it.

// xmit is one recorded transmission intent. It carries everything the
// replay of a clean delivery reads — the destination node and exchange,
// the frame's wire size, the express flag and the prebound delivery
// event — so the coordinator walks the link table and posts the
// delivery without loading the send op or either RMC, which the shards
// write. op is read only when the frame does not arrive clean. shard is
// the recording exchange's index: a held intent counts as pending work
// of its source shard, bounded into shard i by B[shard][i].
type xmit struct {
	t       sim.Time
	seq     uint64
	op      *sendOp
	to      *Exchange // the destination's exchange
	fire    func()    // the delivery event, bound once with op
	wire    int32
	shard   int32
	src     addr.NodeID
	dst     addr.NodeID
	express bool
}

// before reports whether a precedes b in the canonical (time, source
// node, per-source sequence) order. Sequences are unique per source, so
// the order is total.
func (a *xmit) before(b *xmit) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// Exchange is one shard's side of the windowed exchange: the intents its
// RMCs recorded this window.
type Exchange struct {
	eng     *sim.Engine
	idx     int32 // shard index within the set
	setSize int32 // engines in the owning set (>1: bulk bursts refuse to run)

	// xmits is the run of intents recorded since the last Drain, kept in
	// canonical order by record, so its head is the shard's earliest
	// fresh intent and Drain merges it without sorting.
	xmits []xmit

	set *ExchangeSet // the owning set, which RMCs join for their metrics
}

// record holds one transmission intent for the next barrier drain and
// tells the engine of the send (sim.Engine.Sent), which clamps the
// running window so the shard cannot outrun a delivery of it back into
// itself. One insertion step keeps the run sorted: a shard records in
// event-time order, so the step only passes same-time intents of
// higher-numbered sources (and, rarely, a bulk abort ack stamped at its
// server's future service time).
func (x *Exchange) record(m xmit) {
	x.xmits = append(x.xmits, m)
	i := len(x.xmits) - 1
	for ; i > 0 && m.before(&x.xmits[i-1]); i-- {
		x.xmits[i] = x.xmits[i-1]
	}
	x.xmits[i] = m
	x.eng.Sent(m.t)
}

// schedule posts a barrier-time consequence of intent m — its delivery,
// a corrupted duplicate, a retransmission timer or an abandon — to this
// shard's engine at at, recording the horizon from the send time; the
// shard pushes it onto its own heap when its next window opens
// (sim.Engine.Post). The lookahead plan guarantees at lands in the
// shard's future; when a bound matrix fails to cover a send, the panic
// names the intent, where it landed, and how far the shard had already
// run, at post time, instead of the engine's bare "posting before now".
func (x *Exchange) schedule(m *xmit, at sim.Time, fn func()) {
	if now := x.eng.Now(); at < now {
		panic(fmt.Sprintf("rmc: intent t=%d src=%d seq=%d arrives at %d in shard %d's past: the shard ran to limit %d (now %d); the lookahead bounds do not cover this send",
			m.t, m.src, m.seq, at, x.idx, x.eng.Limit(), now))
	}
	x.eng.Post(m.t, at, fn)
}

// ExchangeSet drains every shard's exchange at a window barrier: its
// Drain is the shard set's barrier hook and Earliest its intent source.
// held is the sorted suffix of intents past every horizon so far (spare
// is its double buffer); heldMin[j] is the earliest held time
// attributable to source shard j (sim.MaxTime when none), the elision
// scheduler's view of in-flight cross-shard work.
type ExchangeSet struct {
	shards  []*Exchange
	fabric  Fabric // the one fabric every RMC of the set sends over
	held    []xmit
	spare   []xmit
	runs    [][]xmit // Drain's merge cursors, reused
	heldMin []sim.Time
	trace   func(t sim.Time, src, dst addr.NodeID, seq uint64)
	rmcs    []*RMC // every RMC sending through the set, for its metric families
}

// NewExchangeSet builds one exchange per shard of set, installs Drain
// as the set's barrier hook and Earliest as its intent source, and
// registers the metric families of the RMCs that will send through it.
// Drain walks every replayed frame through fabric.
func NewExchangeSet(set *sim.ShardSet, fabric Fabric) *ExchangeSet {
	k := set.Shards()
	es := &ExchangeSet{fabric: fabric, heldMin: make([]sim.Time, k)}
	for i := 0; i < k; i++ {
		es.shards = append(es.shards, &Exchange{set: es, eng: set.Engine(i), idx: int32(i), setSize: int32(k)})
		es.heldMin[i] = sim.MaxTime
	}
	set.OnBarrier(es.Drain)
	set.SetIntentSource(es.Earliest)
	es.register(set.Metrics())
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
// safe if every pending intent's delivery cascade bounds it. The fresh
// run is sorted, so its head is its minimum.
func (es *ExchangeSet) Earliest(j int) sim.Time {
	if x := es.shards[j].xmits; len(x) > 0 && x[0].t < es.heldMin[j] {
		return x[0].t
	}
	return es.heldMin[j]
}

// Drain replays every pending intent with time strictly below horizon in
// canonical (time, source, sequence) order through the fabric and keeps
// the rest held; that is all it does. It runs on the coordinator with
// all shards parked. A clean delivery is replayed from the intent alone:
// the walk of its links, then a post to the destination engine, which
// pushes the event onto its own heap when its next window opens. Replays
// never record new intents (completeSend posts deliveries and timers as
// events), so the runs being merged stay fixed while they replay. No
// pool return waits for it: every RMC free list is touched only by
// events on its own shard.
func (es *ExchangeSet) Drain(horizon sim.Time) { es.drain(horizon, es.completeSend) }

// drain is Drain's ordering half: it hands replay every pending intent
// below horizon in canonical order, then keeps the rest, still sorted,
// as the new held suffix. The held suffix and each shard's fresh run are
// sorted already, so that order is a merge of at most K+1 runs — and
// with one non-empty run (always, at one shard) a walk of that run in
// place.
func (es *ExchangeSet) drain(horizon sim.Time, replay func(*xmit)) {
	runs := es.runs[:0]
	if len(es.held) > 0 {
		runs = append(runs, es.held)
	}
	for _, x := range es.shards {
		if len(x.xmits) > 0 {
			runs = append(runs, x.xmits)
		}
	}
	for b := earliestRun(runs); b >= 0 && runs[b][0].t < horizon; b = earliestRun(runs) {
		replay(&runs[b][0])
		runs[b] = runs[b][1:]
	}
	// Everything left is at or past the horizon.
	rest := es.spare[:0]
	for b := earliestRun(runs); b >= 0; b = earliestRun(runs) {
		rest = append(rest, runs[b][0])
		runs[b] = runs[b][1:]
	}
	clear(runs)
	es.runs = runs[:0]
	clear(es.held)
	es.held, es.spare = rest, es.held[:0]
	for _, x := range es.shards {
		clear(x.xmits)
		x.xmits = x.xmits[:0]
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
}

// earliestRun returns the index of the run whose head comes first in
// canonical order, or -1 when every run is exhausted.
func earliestRun(runs [][]xmit) int {
	b := -1
	for i := range runs {
		if len(runs[i]) > 0 && (b < 0 || runs[i][0].before(&runs[b][0])) {
			b = i
		}
	}
	return b
}
