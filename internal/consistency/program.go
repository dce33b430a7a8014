package consistency

import (
	"fmt"
	"math/rand"
)

// Instr is one instruction of a simulated multi-node program.
type Instr struct {
	Op  Op
	Loc uint64 // reads and writes
	Val uint64 // writes
}

// R builds a read instruction.
func R(loc uint64) Instr { return Instr{Op: OpRead, Loc: loc} }

// W builds a write instruction.
func W(loc, val uint64) Instr { return Instr{Op: OpWrite, Loc: loc, Val: val} }

// Acq builds an acquire fence.
func Acq() Instr { return Instr{Op: OpAcquire} }

// Rel builds a release fence.
func Rel() Instr { return Instr{Op: OpRelease} }

// Program is one instruction list per node, executed in program order.
type Program [][]Instr

// RunProgram executes prog against the protocol under the given
// schedule — a sequence of node indices, each meaning "that node issues
// its next instruction now" — and records the history. The driver
// executes exactly one instruction per step, so the recorded Seq order
// is the real-time order. Everything is deterministic: same protocol
// state machine, same program, same schedule ⇒ the same history.
func RunProgram(p Protocol, prog Program, schedule []int) (History, error) {
	return RunProgramChecked(p, prog, schedule, nil)
}

// RunProgramChecked is RunProgram with a per-step hook: after every
// executed instruction, after(step) runs and a non-nil error aborts the
// run. The fuzz harness uses it to hold the protocol's invariants at
// every intermediate state, not just at the end of the run.
func RunProgramChecked(p Protocol, prog Program, schedule []int, after func(step int) error) (History, error) {
	if len(prog) != p.Nodes() {
		return History{}, fmt.Errorf("consistency: program has %d nodes, protocol %d", len(prog), p.Nodes())
	}
	h := History{Nodes: len(prog)}
	idx := make([]int, len(prog))
	for step, n := range schedule {
		if n < 0 || n >= len(prog) {
			return History{}, fmt.Errorf("consistency: schedule step %d names node %d of %d", step, n, len(prog))
		}
		if idx[n] >= len(prog[n]) {
			return History{}, fmt.Errorf("consistency: schedule step %d resumes node %d past its %d instructions", step, n, len(prog[n]))
		}
		in := prog[n][idx[n]]
		idx[n]++
		ev := Event{Seq: step, Node: n, Op: in.Op, Loc: in.Loc, Value: in.Val}
		var err error
		switch in.Op {
		case OpRead:
			ev.Value, ev.Cost, err = p.Read(n, in.Loc)
		case OpWrite:
			ev.Cost, err = p.Write(n, in.Loc, in.Val)
		case OpAcquire:
			ev.Cost, err = p.Acquire(n)
		case OpRelease:
			ev.Cost, err = p.Release(n)
		default:
			err = fmt.Errorf("consistency: unknown op %d", in.Op)
		}
		if err != nil {
			return History{}, fmt.Errorf("consistency: step %d (%s): %w", step, ev, err)
		}
		h.Events = append(h.Events, ev)
		if after != nil {
			if err := after(step); err != nil {
				return History{}, fmt.Errorf("consistency: after step %d (%s): %w", step, ev, err)
			}
		}
	}
	for n := range prog {
		if idx[n] != len(prog[n]) {
			return History{}, fmt.Errorf("consistency: schedule left node %d at instruction %d of %d", n, idx[n], len(prog[n]))
		}
	}
	return h, nil
}

// RandomProgram generates a seeded random multi-node access program:
// opsPerNode reads/writes per node over locs shared locations, writeFrac
// of them stores (each with a globally unique nonzero value, so the
// checker can identify writers), and — when fences is set — an
// occasional release after stores and acquire before loads.
func RandomProgram(seed int64, nodes, opsPerNode, locs int, writeFrac float64, fences bool) Program {
	rng := rand.New(rand.NewSource(seed))
	prog := make(Program, nodes)
	val := uint64(0)
	for n := 0; n < nodes; n++ {
		for i := 0; i < opsPerNode; i++ {
			loc := uint64(rng.Intn(locs))
			if rng.Float64() < writeFrac {
				val++
				prog[n] = append(prog[n], W(loc, val))
				if fences && rng.Intn(3) == 0 {
					prog[n] = append(prog[n], Rel())
				}
			} else {
				if fences && rng.Intn(3) == 0 {
					prog[n] = append(prog[n], Acq())
				}
				prog[n] = append(prog[n], R(loc))
			}
		}
	}
	return prog
}

// RandomSchedule generates a seeded random interleaving of the
// program's instructions.
func RandomSchedule(seed int64, prog Program) []int {
	rng := rand.New(rand.NewSource(seed))
	remaining := make([]int, len(prog))
	total := 0
	for n := range prog {
		remaining[n] = len(prog[n])
		total += len(prog[n])
	}
	sched := make([]int, 0, total)
	for len(sched) < total {
		pick := rng.Intn(total - len(sched))
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
