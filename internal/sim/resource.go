package sim

import "fmt"

// Resource models a FIFO single server with an optional bounded queue:
// one request is served at a time for its occupancy; arrivals while busy
// wait in arrival order. Links, memory controllers, and RMCs are
// Resources. The model is "timeline" based: instead of scheduling
// start-of-service events, Acquire computes when service would complete
// and the caller schedules its continuation there. Because the engine is
// single-threaded and events execute in time order, this is equivalent to
// an explicit server process but far cheaper.
type Resource struct {
	// nextFree is the earliest time the server can begin a new service.
	nextFree Time

	// queueDepth bounds how many requests may be waiting (excluding the
	// one in service). 0 means unbounded.
	queueDepth int

	// waiting tracks, for a bounded queue only, when each queued or
	// in-service request releases its queue slot, so admission can be
	// checked. A slot is released when the server has actually finished
	// the request: Penalize pushes pending release times back along with
	// nextFree, so the queue stays full while the server chews NACK
	// waste. Entries with release <= now are pruned lazily.
	waiting []Time

	// Served counts accepted services; Rejected counts bounced arrivals.
	Served, Rejected uint64
	// Busy accumulates total service occupancy, for utilization reports.
	Busy Time
}

// NewResource creates a FIFO resource. queueDepth 0 means unbounded.
func NewResource(queueDepth int) *Resource {
	return &Resource{queueDepth: queueDepth}
}

func (r *Resource) prune(now Time) {
	i := 0
	for i < len(r.waiting) && r.waiting[i] <= now {
		i++
	}
	if i > 0 {
		r.waiting = append(r.waiting[:0], r.waiting[i:]...)
	}
}

// Acquire requests service of the given occupancy starting no earlier
// than now. It returns the completion time and true, or 0 and false if
// the bounded queue is full (the caller must retry). The caller is
// responsible for scheduling its continuation at the returned time. An
// unbounded resource never reads its queue, so it keeps none: Acquire
// is then just max(now, nextFree) + occupancy.
func (r *Resource) Acquire(now Time, occupancy Time) (Time, bool) {
	if occupancy < 0 {
		panic(fmt.Sprintf("sim: negative occupancy %d", occupancy))
	}
	if r.queueDepth > 0 {
		r.prune(now)
		if len(r.waiting) > r.queueDepth {
			r.Rejected++
			return 0, false
		}
	}
	done := max(now, r.nextFree) + occupancy
	r.nextFree = done
	if r.queueDepth > 0 {
		r.waiting = append(r.waiting, done)
	}
	r.Served++
	r.Busy += occupancy
	return done, true
}

// Penalize consumes service capacity without a completion (e.g. the cost
// of NACKing a rejected request). It delays all subsequent services and,
// on a bounded queue, holds the queue slots of still-pending requests
// for the extra time: the backlogged server has not finished them, so
// they must keep counting against the bounded queue or a NACK storm
// would admit more than queueDepth outstanding requests. The completion
// times already returned to earlier Acquire callers are unchanged — the
// timeline model fixes a request's completion at admission, a
// deliberate approximation.
func (r *Resource) Penalize(now Time, cost Time) {
	if cost <= 0 {
		return
	}
	r.nextFree = max(now, r.nextFree) + cost
	r.Busy += cost
	for i, w := range r.waiting {
		if w > now {
			r.waiting[i] = w + cost
		}
	}
}

// QueueLen returns the number of requests holding a slot of a bounded
// queue at now. An unbounded resource tracks no slots and reports 0.
func (r *Resource) QueueLen(now Time) int {
	r.prune(now)
	return len(r.waiting)
}

// NextFree returns the earliest time a new service could begin.
func (r *Resource) NextFree() Time { return r.nextFree }

// Utilization returns Busy time as a fraction of the elapsed time.
func (r *Resource) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.Busy) / float64(elapsed)
}
