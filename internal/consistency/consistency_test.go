package consistency

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/params"
)

// TestLitmusVerdicts is the suite's ground-truth table: every litmus
// test against every protocol must earn exactly its expected verdict.
// This is where the protocols are shown to differ — MSI passes
// everything, the posted-write RMC mode exhibits the TSO anomalies (SB
// reordering, read-read lag), and release consistency is weaker still
// until the acquire is inserted.
func TestLitmusVerdicts(t *testing.T) {
	p := params.Default()
	results, err := RunSuite(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Suite()) * len(Names()); len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("%s/%s: verdict %+v, want %+v\nhistory:", r.Test, r.Protocol, r.Verdict, r.Expected)
			for _, e := range r.History.Events {
				t.Errorf("  %s (seq %d)", e, e.Seq)
			}
		}
	}
	// The acceptance shape spelled out: SB reordering is observable
	// under the weak protocols and never under MSI.
	byKey := make(map[string]LitmusResult)
	for _, r := range results {
		byKey[r.Test+"/"+r.Protocol] = r
	}
	if !byKey["sb/msi"].Verdict.SC {
		t.Error("sb/msi: MSI must forbid store-buffering reordering")
	}
	for _, weak := range []string{"rmc", "rc"} {
		if byKey["sb/"+weak].Verdict.SC {
			t.Errorf("sb/%s: store-buffering reordering must be observable", weak)
		}
	}
}

// TestLitmusExpectationsCoverAllProtocols keeps the suite honest as
// protocols are added.
func TestLitmusExpectationsCoverAllProtocols(t *testing.T) {
	for _, l := range Suite() {
		for _, name := range Names() {
			if _, ok := l.Expect[name]; !ok {
				t.Errorf("%s: missing expectation for %q", l.Name, name)
			}
		}
	}
}

// TestCheckSC exercises the checker directly on hand-built histories.
func TestCheckSC(t *testing.T) {
	ev := func(seq, node int, op Op, loc, val uint64) Event {
		return Event{Seq: seq, Node: node, Op: op, Loc: loc, Value: val}
	}
	cases := []struct {
		name   string
		h      History
		sc     bool
		perLoc bool
	}{
		{
			name:   "empty",
			h:      History{Nodes: 2},
			sc:     true,
			perLoc: true,
		},
		{
			name: "single-writer-reader",
			h: History{Nodes: 2, Events: []Event{
				ev(0, 0, OpWrite, 0, 7),
				ev(1, 1, OpRead, 0, 7),
			}},
			sc:     true,
			perLoc: true,
		},
		{
			name: "read-from-nowhere",
			h: History{Nodes: 2, Events: []Event{
				ev(0, 0, OpWrite, 0, 7),
				ev(1, 1, OpRead, 0, 9),
			}},
			sc:     false,
			perLoc: false,
		},
		{
			// The reader lags the writer by one step: SC explains it by
			// reordering, the per-location check does not.
			name: "stale-read-is-sc-but-not-linearizable",
			h: History{Nodes: 2, Events: []Event{
				ev(0, 0, OpWrite, 0, 1),
				ev(1, 1, OpRead, 0, 0),
			}},
			sc:     true,
			perLoc: false,
		},
		{
			// n1 observes x's two writes in reverse order: no
			// interleaving explains it.
			name: "coherence-order-violation",
			h: History{Nodes: 2, Events: []Event{
				ev(0, 0, OpWrite, 0, 1),
				ev(1, 1, OpRead, 0, 2),
				ev(2, 0, OpWrite, 0, 2),
				ev(3, 1, OpRead, 0, 1),
			}},
			sc:     false,
			perLoc: false,
		},
		{
			// Fences never change the SC verdict: they are stripped
			// before the search.
			name: "fences-ignored",
			h: History{Nodes: 2, Events: []Event{
				ev(0, 0, OpWrite, 0, 7),
				ev(1, 0, OpRelease, 0, 0),
				ev(2, 1, OpAcquire, 0, 0),
				ev(3, 1, OpRead, 0, 7),
			}},
			sc:     true,
			perLoc: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Check(tc.h)
			if err != nil {
				t.Fatal(err)
			}
			if v.SC != tc.sc {
				t.Errorf("SC = %v, want %v", v.SC, tc.sc)
			}
			if v.PerLoc != tc.perLoc {
				t.Errorf("PerLoc = %v, want %v", v.PerLoc, tc.perLoc)
			}
		})
	}
}

// TestCheckSCMemoization runs the checker on a history large enough
// that naive enumeration of interleavings (20!/(10!10!) ≈ 185k paths
// per memory image) would blow the cap without frontier memoization.
func TestCheckSCMemoization(t *testing.T) {
	h := History{Nodes: 2}
	seq := 0
	for i := 0; i < 10; i++ {
		h.Events = append(h.Events,
			Event{Seq: seq, Node: 0, Op: OpWrite, Loc: uint64(i % 2), Value: uint64(i + 1)},
			Event{Seq: seq + 1, Node: 1, Op: OpWrite, Loc: uint64(i%2) + 2, Value: uint64(i + 1)})
		seq += 2
	}
	ok, states, err := CheckSC(h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("write-only history must be SC")
	}
	if states > 100_000 {
		t.Fatalf("memoization ineffective: %d states explored", states)
	}
}

// TestRunProgramValidation covers the driver's error paths.
func TestRunProgramValidation(t *testing.T) {
	p := params.Default()
	proto, err := NewProtocol("msi", p, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog := Program{{W(0, 1)}, {R(0)}}
	if _, err := RunProgram(proto, Program{{W(0, 1)}}, []int{0}); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if _, err := RunProgram(proto, prog, []int{0, 2}); err == nil {
		t.Error("out-of-range schedule node accepted")
	}
	if _, err := RunProgram(proto, prog, []int{0, 0}); err == nil {
		t.Error("schedule overrunning a node's program accepted")
	}
	if _, err := RunProgram(proto, prog, []int{0}); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

// TestProtocolRegistry covers NewProtocol and the metadata surface.
func TestProtocolRegistry(t *testing.T) {
	p := params.Default()
	for _, name := range Names() {
		proto, err := NewProtocol(name, p, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if proto.Name() != name {
			t.Errorf("%s: Name() = %q", name, proto.Name())
		}
		if proto.Model() == "" {
			t.Errorf("%s: empty Model()", name)
		}
		if proto.Nodes() != 4 {
			t.Errorf("%s: Nodes() = %d", name, proto.Nodes())
		}
		if err := proto.SelfCheck(); err != nil {
			t.Errorf("%s: fresh SelfCheck: %v", name, err)
		}
	}
	if _, err := NewProtocol("moesi", p, 4); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := NewProtocol("msi", p, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewProtocol("rmc", p, 17); err == nil {
		t.Error("nodes beyond the mesh accepted")
	}
}

// TestProtocolOpsChargeCost checks every protocol charges nonzero
// latency for remote traffic — the experiment's comparison would be
// vacuous otherwise.
func TestProtocolOpsChargeCost(t *testing.T) {
	p := params.Default()
	for _, name := range Names() {
		proto, err := NewProtocol(name, p, 4)
		if err != nil {
			t.Fatal(err)
		}
		prog := Program{
			{W(1, 1), Rel()},
			{Acq(), R(1)},
			{W(2, 2), Rel()},
			{Acq(), R(2)},
		}
		// Round robin: one instruction per node in turn.
		h, err := RunProgram(proto, prog, []int{0, 1, 2, 3, 0, 1, 2, 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.TotalCost() <= 0 {
			t.Errorf("%s: zero total cost", name)
		}
		if h.Ops() != 4 {
			t.Errorf("%s: Ops() = %d, want 4", name, h.Ops())
		}
	}
}

// mutateOneRead returns a copy of the history with the value of its
// i-th read flipped to a value no write ever produced.
func mutateOneRead(h History, i int) (History, bool) {
	out := History{Nodes: h.Nodes, Events: append([]Event(nil), h.Events...)}
	seen := 0
	for j, e := range out.Events {
		if e.Op != OpRead {
			continue
		}
		if seen == i {
			out.Events[j].Value = e.Value + 0xdead0001
			return out, true
		}
		seen++
	}
	return out, false
}

// sameReads reports whether two histories of the same program observed
// identical values at every read.
func sameReads(a, b History) bool {
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Op != eb.Op || ea.Node != eb.Node || ea.Loc != eb.Loc {
			return false
		}
		if ea.Op == OpRead && ea.Value != eb.Value {
			return false
		}
	}
	return true
}

// TestPropertySCAcceptsProtocolHistories is the seeded property test:
// for random multi-node access programs, every MSI history is accepted
// by both checkers; every non-coherent-mode history whose observed
// reads MSI also produces on the same program/schedule is accepted by
// the SC checker (the rmc runs that diverge exhibited a genuine TSO
// anomaly and are checked to be exactly that — an SC rejection, never a
// crash); and every seeded mutation (a flipped read value no write ever
// produced) is rejected with probability 1.
func TestPropertySCAcceptsProtocolHistories(t *testing.T) {
	p := params.Default()
	const trials = 40
	mutations, matched, diverged := 0, 0, 0
	for seed := int64(0); seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nodes := 2 + int(seed)%3
			prog := RandomProgram(seed, nodes, 6, 3, 0.5, false)
			sched := RandomSchedule(seed+1000, prog)
			histories := make(map[string]History)
			for _, name := range []string{"msi", "rmc"} {
				proto, err := NewProtocol(name, p, nodes)
				if err != nil {
					t.Fatal(err)
				}
				h, err := RunProgram(proto, prog, sched)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := proto.SelfCheck(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				histories[name] = h
			}
			mv, err := Check(histories["msi"])
			if err != nil {
				t.Fatal(err)
			}
			if !mv.SC {
				t.Error("msi: SC checker rejected a coherent history")
			}
			if !mv.PerLoc {
				t.Errorf("msi: per-location check rejected a coherent history: %s", mv.PerLocReason)
			}
			rv, err := Check(histories["rmc"])
			if err != nil {
				t.Fatal(err)
			}
			if sameReads(histories["msi"], histories["rmc"]) {
				matched++
				if !rv.SC {
					t.Error("rmc: SC checker rejected a history MSI also produces")
				}
			} else {
				diverged++
			}
			// Every single-read mutation must be rejected: the flipped
			// value was never written, so no interleaving and no
			// issue-order scan can explain it.
			for i := 0; ; i++ {
				mut, ok := mutateOneRead(histories["msi"], i)
				if !ok {
					break
				}
				v, err := Check(mut)
				if err != nil {
					t.Fatalf("mutation %d: %v", i, err)
				}
				if v.SC {
					t.Errorf("mutation %d: SC checker accepted a flipped read", i)
				}
				if v.PerLoc {
					t.Errorf("mutation %d: per-location check accepted a flipped read", i)
				}
				mutations++
			}
		})
	}
	if mutations == 0 {
		t.Fatal("property test exercised zero mutations")
	}
	if matched == 0 {
		t.Error("no trial produced matching msi/rmc histories — the acceptance half of the property is vacuous")
	}
	t.Logf("%d matched, %d diverged, %d mutations rejected", matched, diverged, mutations)
}

// TestDeterminism reruns the full litmus suite and a random program and
// demands byte-identical histories and verdicts — the package-level
// determinism contract the experiment's figure relies on.
func TestDeterminism(t *testing.T) {
	p := params.Default()
	a, err := RunSuite(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("litmus suite results differ across reruns")
	}
	prog := RandomProgram(42, 3, 8, 4, 0.4, true)
	sched := RandomSchedule(43, prog)
	var prev History
	for i := 0; i < 3; i++ {
		proto, err := NewProtocol("rc", p, 3)
		if err != nil {
			t.Fatal(err)
		}
		h, err := RunProgram(proto, prog, sched)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !reflect.DeepEqual(prev, h) {
			t.Fatalf("rerun %d produced a different history", i)
		}
		prev = h
	}
}

// TestReleaseConsistentSemantics pins the rc protocol's mechanics:
// stale reads before acquire, fresh after, and buffer overflow forcing
// an implicit release.
func TestReleaseConsistentSemantics(t *testing.T) {
	p := params.Default()
	c, err := NewReleaseConsistent(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Warm node 1's cache with x=0.
	if v, _, err := c.Read(1, 0); err != nil || v != 0 {
		t.Fatalf("cold read = %d, %v", v, err)
	}
	// Node 0 writes and releases.
	if _, err := c.Write(0, 0, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Release(0); err != nil {
		t.Fatal(err)
	}
	// Stale before acquire…
	if v, _, _ := c.Read(1, 0); v != 0 {
		t.Fatalf("pre-acquire read = %d, want stale 0", v)
	}
	// …fresh after.
	if _, err := c.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Read(1, 0); v != 9 {
		t.Fatalf("post-acquire read = %d, want 9", v)
	}
	// Overflowing the buffer publishes implicitly.
	for i := 0; i <= rcBufferDepth; i++ {
		if _, err := c.Write(0, uint64(100+i), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Publishes == 1 {
		t.Error("buffer overflow did not trigger an implicit release")
	}
	if err := c.SelfCheck(); err != nil {
		t.Error(err)
	}
}

// TestNonCoherentSemantics pins the rmc protocol's TSO mechanics:
// store forwarding, FIFO drain, and the depth bound.
func TestNonCoherentSemantics(t *testing.T) {
	p := params.Default()
	c, err := NewNonCoherent(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	// The writer forwards its own posted store…
	if v, _, _ := c.Read(0, 5); v != 1 {
		t.Fatalf("store forwarding returned %d", v)
	}
	if c.Forwards != 1 {
		t.Errorf("Forwards = %d, want 1", c.Forwards)
	}
	// …but the other node still sees memory.
	if v, _, _ := c.Read(1, 5); v != 0 {
		t.Fatalf("remote read of posted store = %d, want 0", v)
	}
	// Release drains to memory.
	if _, err := c.Release(0); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Read(1, 5); v != 1 {
		t.Fatalf("post-release read = %d, want 1", v)
	}
	if err := c.SelfCheck(); err != nil {
		t.Error(err)
	}
}
