package consistency

import (
	"fmt"
	"strings"

	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/splitmix"
)

// This file is the schedule-exploration model checker. PR 6's lab ran
// each litmus program under exactly one seeded schedule, so the
// checkers only ever saw a single interleaving; here every (program,
// protocol) pair is explored systematically — exhaustively up to a
// bounded program size, by seeded random sampling beyond it — and every
// explored history runs through the SC and per-location checkers plus
// the protocol's own invariants. A violation is reported as the
// lexicographically minimal violating schedule, which is a replayable
// trace: feed it back to RunProgram and the identical history returns.

// maxExhaustiveSchedules caps exhaustive enumeration the same way
// scStateCap caps the SC search: past the cap ExploreProgram returns an
// error rather than silently truncating coverage — the caller should
// lower the depth bound and let sampling take over.
const maxExhaustiveSchedules = 250_000

// ExploreSpec configures schedule exploration for one program.
type ExploreSpec struct {
	// MaxDepth bounds exhaustive enumeration: a program whose total
	// instruction count is at most MaxDepth has every interleaving
	// enumerated (modulo the sleep-set reduction); longer programs fall
	// back to seeded random sampling.
	MaxDepth int
	// Samples is the number of seeded schedules drawn for programs past
	// the exhaustive bound.
	Samples int
	// Seed feeds the splitmix64 schedule sampler. Same seed, same
	// schedules, at any Parallel setting.
	Seed int64
	// Parallel bounds the worker count schedules are sharded across
	// (runner.Map); results are merged in schedule order, so the
	// outcome is byte-identical at any setting. Values below 1 run
	// serially.
	Parallel int
}

// DefaultExploreSpec is the explorer's default budget: exhaustive up to
// 6 instructions, 500 sampled schedules beyond, seed 1, serial.
func DefaultExploreSpec() ExploreSpec {
	return ExploreSpec{MaxDepth: 6, Samples: 500, Seed: 1, Parallel: 1}
}

func (s ExploreSpec) validate() error {
	if s.MaxDepth < 0 {
		return fmt.Errorf("consistency: negative explore depth %d", s.MaxDepth)
	}
	if s.Samples < 1 {
		return fmt.Errorf("consistency: explore sample count %d below 1", s.Samples)
	}
	return nil
}

// String renders the spec in the CLI's -explore grammar.
func (s ExploreSpec) String() string {
	return fmt.Sprintf("exhaustive:%d,sample:%d:%d", s.MaxDepth, s.Samples, s.Seed)
}

// ScheduleOutcome is one explored schedule's outcome: the replayable
// trace of a violation.
type ScheduleOutcome struct {
	// Schedule is the node-index interleaving; RunProgram replays it.
	Schedule []int
	// Verdict is the checkers' judgment of the recorded history.
	Verdict Verdict
	// Undecided reports that the SC search hit its state cap — the SC
	// half of the verdict is neither pass nor fail.
	Undecided bool
	// InvariantErr is the protocol SelfCheck failure (or the protocol's
	// own mid-run error), empty when the state machine stayed sound.
	InvariantErr string
	// History is the recorded execution (empty if the protocol errored
	// mid-run).
	History History
}

// Trace renders the schedule and its history as a replayable trace.
func (o ScheduleOutcome) Trace() string {
	var b strings.Builder
	b.WriteString("schedule ")
	for i, n := range o.Schedule {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	fmt.Fprintf(&b, " — %s", o.Verdict.Summary())
	if o.InvariantErr != "" {
		fmt.Fprintf(&b, " invariants=FAIL (%s)", o.InvariantErr)
	}
	b.WriteByte('\n')
	for _, e := range o.History.Events {
		fmt.Fprintf(&b, "  step %d: %s\n", e.Seq, e)
	}
	return b.String()
}

// ExploreResult summarizes the exploration of one (program, protocol)
// pair. The verdict is existential — "does any explored schedule
// violate?" — which is the question the single-schedule litmus suite
// could not ask.
type ExploreResult struct {
	// Test and Protocol identify the pair (Test is empty for ad-hoc
	// programs).
	Test     string
	Protocol string
	// Exhaustive reports whether every interleaving was enumerated
	// (modulo the sleep-set reduction); false means seeded sampling.
	Exhaustive bool
	// Schedules is how many schedules were run.
	Schedules int
	// SCFails, PerLocFails, and InvariantFails count schedules whose
	// history failed each check; Undecided counts SC searches that hit
	// the state cap (neither pass nor fail).
	SCFails, PerLocFails, InvariantFails, Undecided int
	// MinSC, MinPerLoc, and MinInvariant are the lexicographically
	// minimal violating schedules per category, nil when clean.
	MinSC, MinPerLoc, MinInvariant *ScheduleOutcome
}

// Violations is the total count of violating schedules across all
// three categories (a schedule failing several checks counts once per
// category).
func (r ExploreResult) Violations() int {
	return r.SCFails + r.PerLocFails + r.InvariantFails
}

// FirstViolation returns the lexicographically minimal violating
// schedule across all categories, or nil when the exploration is clean.
func (r ExploreResult) FirstViolation() *ScheduleOutcome {
	var best *ScheduleOutcome
	for _, o := range []*ScheduleOutcome{r.MinSC, r.MinPerLoc, r.MinInvariant} {
		if o != nil && (best == nil || lessSchedule(o.Schedule, best.Schedule)) {
			best = o
		}
	}
	return best
}

// lessSchedule is the lexicographic order defining "minimal violating
// schedule" (all complete schedules of one program share a length).
func lessSchedule(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// independent reports whether two instructions from different nodes
// commute for verdict purposes. The relation is deliberately
// conservative — only two loads: every protocol in the lab serves reads
// without mutating another node's observable values, so swapping
// adjacent reads by different nodes yields the same read values, the
// same per-node program orders, and the same final protocol state.
// Writes are never declared independent even across locations, because
// bounded store buffers couple them (an rmc write can drain the oldest
// entry for a *different* location), and fences publish or discard
// whole buffers.
func independent(a, b Instr) bool {
	return a.Op == OpRead && b.Op == OpRead
}

// enumerateSchedules lists every complete interleaving of the program's
// per-node instruction streams with a sleep-set reduction: after a
// branch explores node n at some decision point, its siblings put n to
// sleep in their subtrees for as long as n's next instruction stays
// independent of the instructions executed — so of any group of
// schedules equivalent under the independence relation, exactly one
// representative is enumerated. Forced moves (a single runnable node)
// extend the current schedule without branching. Enumeration order is
// depth-first over ascending node indices, so the list is
// lexicographically sorted and deterministic.
func enumerateSchedules(prog Program, limit int) ([][]int, error) {
	total := 0
	for _, is := range prog {
		total += len(is)
	}
	idx := make([]int, len(prog))
	cur := make([]int, 0, total)
	var out [][]int
	var dfs func(sleep []bool) error
	dfs = func(sleep []bool) error {
		if len(cur) == total {
			if len(out) >= limit {
				return fmt.Errorf("consistency: exhaustive exploration exceeds %d schedules; lower the depth bound", limit)
			}
			out = append(out, append([]int(nil), cur...))
			return nil
		}
		var taken []int
		for n := range prog {
			if idx[n] >= len(prog[n]) || sleep[n] {
				continue
			}
			in := prog[n][idx[n]]
			// The child inherits every sleeping or already-explored
			// sibling whose next instruction is independent of the one
			// just scheduled: those orders are covered by the sibling's
			// own subtree.
			child := make([]bool, len(prog))
			for s := range prog {
				if s == n || idx[s] >= len(prog[s]) {
					continue
				}
				asleep := sleep[s]
				for _, tk := range taken {
					if tk == s {
						asleep = true
					}
				}
				if asleep && independent(prog[s][idx[s]], in) {
					child[s] = true
				}
			}
			idx[n]++
			cur = append(cur, n)
			if err := dfs(child); err != nil {
				return err
			}
			cur = cur[:len(cur)-1]
			idx[n]--
			taken = append(taken, n)
		}
		return nil
	}
	if err := dfs(make([]bool, len(prog))); err != nil {
		return nil, err
	}
	return out, nil
}

// sampleSchedule derives the i-th seeded schedule of the program: a
// uniform interleaving drawn from a stream that depends only on (seed,
// i), so shards can generate their schedules independently and the
// sampled set is identical at any worker count.
func sampleSchedule(seed int64, i int, prog Program) []int {
	r := splitmix.New(splitmix.Hash(uint64(seed)) ^ (uint64(i)+1)*splitmix.Gamma)
	remaining := make([]int, len(prog))
	total := 0
	for n := range prog {
		remaining[n] = len(prog[n])
		total += len(prog[n])
	}
	sched := make([]int, 0, total)
	for len(sched) < total {
		pick := int(r.Next() % uint64(total-len(sched)))
		for n := range remaining {
			if remaining[n] == 0 {
				continue
			}
			if pick < remaining[n] {
				sched = append(sched, n)
				remaining[n]--
				break
			}
			pick -= remaining[n]
		}
	}
	return sched
}

// ExploreProgram explores schedules of prog against fresh protocol
// instances from newProto (one instance per schedule — protocols are
// stateful). Programs whose total instruction count is within
// spec.MaxDepth are enumerated exhaustively with the sleep-set
// reduction; longer programs run spec.Samples seeded random schedules.
// Schedules are sharded across spec.Parallel workers and merged in
// schedule order, so the result is identical at any worker count.
func ExploreProgram(newProto func() (Protocol, error), prog Program, spec ExploreSpec) (ExploreResult, error) {
	if err := spec.validate(); err != nil {
		return ExploreResult{}, err
	}
	total := 0
	for _, is := range prog {
		total += len(is)
	}
	var scheds [][]int
	res := ExploreResult{Exhaustive: total <= spec.MaxDepth}
	if res.Exhaustive {
		var err error
		scheds, err = enumerateSchedules(prog, maxExhaustiveSchedules)
		if err != nil {
			return ExploreResult{}, err
		}
	} else {
		scheds = make([][]int, spec.Samples)
		for i := range scheds {
			scheds[i] = sampleSchedule(spec.Seed, i, prog)
		}
	}
	workers := spec.Parallel
	if workers < 1 {
		workers = 1
	}
	outcomes, err := runner.Map(workers, len(scheds), func(i int) (ScheduleOutcome, error) {
		o := ScheduleOutcome{Schedule: scheds[i]}
		proto, err := newProto()
		if err != nil {
			return ScheduleOutcome{}, err
		}
		h, err := RunProgram(proto, prog, scheds[i])
		if err != nil {
			// A protocol erroring mid-run is itself a state-machine
			// violation finding, not an explorer failure.
			o.InvariantErr = err.Error()
			o.Verdict = Verdict{SC: true, PerLoc: true}
			return o, nil
		}
		o.History = h
		if err := proto.SelfCheck(); err != nil {
			o.InvariantErr = err.Error()
		}
		v, err := Check(h)
		if err != nil {
			// SC search hit its state cap: undecided rather than a
			// wrong verdict; the PerLoc half is still valid.
			o.Undecided = true
			v.SC = true
		}
		o.Verdict = v
		return o, nil
	})
	if err != nil {
		return ExploreResult{}, err
	}
	res.Schedules = len(outcomes)
	record := func(min **ScheduleOutcome, count *int, o ScheduleOutcome) {
		*count++
		if *min == nil || lessSchedule(o.Schedule, (*min).Schedule) {
			c := o
			*min = &c
		}
	}
	for _, o := range outcomes {
		switch {
		case o.Undecided:
			res.Undecided++
		case !o.Verdict.SC:
			record(&res.MinSC, &res.SCFails, o)
		}
		if !o.Verdict.PerLoc {
			record(&res.MinPerLoc, &res.PerLocFails, o)
		}
		if o.InvariantErr != "" {
			record(&res.MinInvariant, &res.InvariantFails, o)
		}
	}
	return res, nil
}

// ExploreLitmus explores every litmus program under every named
// protocol (all registered protocols when names is empty) and returns
// the results in suite × protocol order.
func ExploreLitmus(p params.Params, names []string, spec ExploreSpec) ([]ExploreResult, error) {
	if len(names) == 0 {
		names = Names()
	}
	var out []ExploreResult
	for _, l := range Suite() {
		for _, name := range names {
			l, name := l, name
			r, err := ExploreProgram(func() (Protocol, error) {
				return NewProtocol(name, p, l.Nodes)
			}, l.Prog, spec)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", l.Name, name, err)
			}
			r.Test = l.Name
			r.Protocol = name
			out = append(out, r)
		}
	}
	return out, nil
}

// StrongProtocols lists the protocols promising sequential consistency;
// for these any explored violation is a protocol bug, whereas for the
// weak protocols SC and per-location failures are the advertised
// anomalies and only invariant failures (or undecided searches) are
// errors.
func StrongProtocols() map[string]bool { return map[string]bool{"msi": true, "mesi": true} }

// Problems returns the explored violations that indict the protocol
// implementation rather than document its advertised weakness: for a
// strong protocol every violation, for a weak one invariant failures
// and undecided searches.
func (r ExploreResult) Problems() []string {
	var out []string
	strong := StrongProtocols()[r.Protocol]
	if strong && r.SCFails > 0 {
		out = append(out, fmt.Sprintf("%d/%d schedules not sequentially consistent", r.SCFails, r.Schedules))
	}
	if strong && r.PerLocFails > 0 {
		out = append(out, fmt.Sprintf("%d/%d schedules not per-location linearizable", r.PerLocFails, r.Schedules))
	}
	if r.InvariantFails > 0 {
		out = append(out, fmt.Sprintf("%d/%d schedules broke protocol invariants", r.InvariantFails, r.Schedules))
	}
	if r.Undecided > 0 {
		out = append(out, fmt.Sprintf("%d/%d schedules left the SC search undecided", r.Undecided, r.Schedules))
	}
	return out
}
