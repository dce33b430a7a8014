package ncdsm

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func newSys(t *testing.T) *System {
	t.Helper()
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := Validate(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes() != 16 || cfg.PoolSize() != 128<<30 {
		t.Errorf("prototype geometry wrong: %d nodes, %d pool", cfg.Nodes(), cfg.PoolSize())
	}
	bad := cfg
	bad.MeshWidth = 0
	if Validate(bad) == nil {
		t.Error("invalid config validated")
	}
	if _, err := New(bad); err == nil {
		t.Error("invalid config built")
	}
	if !strings.Contains(Describe(cfg), "16-node") {
		t.Errorf("Describe = %q", Describe(cfg))
	}
}

func TestSystemBasics(t *testing.T) {
	sys := newSys(t)
	if sys.Nodes() != 16 {
		t.Errorf("Nodes = %d", sys.Nodes())
	}
	if sys.PoolFree() != 128<<30 {
		t.Errorf("PoolFree = %d", sys.PoolFree())
	}
	if sys.Config().Nodes() != 16 {
		t.Error("Config lost")
	}
	if sys.Core() == nil {
		t.Error("Core() nil")
	}
	var buf bytes.Buffer
	if err := sys.MemoryMap(3, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RMC") {
		t.Error("memory map missing RMC segments")
	}
	if err := sys.MemoryMap(0, &buf); err == nil {
		t.Error("memory map for node 0")
	}
}

func TestMallocGrowReadWrite(t *testing.T) {
	sys := newSys(t)
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	region.SetPlacement(PlacementNearest)

	ptr, err := region.Malloc(12 << 30) // forces remote backing
	if err != nil {
		t.Fatal(err)
	}
	if region.BorrowedBytes() == 0 {
		t.Error("12 GB malloc borrowed nothing")
	}
	if region.EffectiveMemory() <= sys.Config().PrivateMemPerNode {
		t.Error("effective memory did not grow")
	}

	msg := []byte("hello, remote world")
	if err := region.Write(ptr+9<<30, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := region.Read(ptr+9<<30, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read back %q", got)
	}

	owner, err := region.Owner(ptr + 9<<30)
	if err != nil {
		t.Fatal(err)
	}
	if owner == 0 {
		t.Error("no owner")
	}
	if err := region.Free(ptr); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitGrow(t *testing.T) {
	sys := newSys(t)
	region, err := sys.Region(2)
	if err != nil {
		t.Fatal(err)
	}
	region.SetDonors(11)
	ptr, donor, err := region.Grow(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if donor != 11 {
		t.Errorf("donor = %d, want 11", donor)
	}
	if owner, _ := region.Owner(ptr); owner != 11 {
		t.Errorf("owner = %d", owner)
	}
	ptr2, err := region.GrowFrom(12, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if owner, _ := region.Owner(ptr2); owner != 12 {
		t.Errorf("owner = %d, want 12", owner)
	}
}

func TestWordAccessors(t *testing.T) {
	sys := newSys(t)
	region, _ := sys.Region(1)
	ptr, err := region.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := region.WriteUint64(ptr, 12345); err != nil {
		t.Fatal(err)
	}
	v, err := region.ReadUint64(ptr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 12345 {
		t.Errorf("v = %d", v)
	}
}

func TestTimedAccess(t *testing.T) {
	sys := newSys(t)
	region, _ := sys.Region(1)
	ptr, err := region.GrowFrom(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var done Time
	req := AccessRequest{Now: sys.Now(), Pointer: ptr, Done: func(t Time) { done = t }}
	if err := region.Access(req); err != nil {
		t.Fatal(err)
	}
	end := sys.Run()
	if done == 0 || done > end {
		t.Errorf("done = %d, end = %d", done, end)
	}
	if done < sys.Config().RemoteRoundTrip(1) {
		t.Errorf("remote access faster than physics: %d", done)
	}
	if sys.Now() != end {
		t.Errorf("Now = %d after Run returned %d", sys.Now(), end)
	}
}

func TestExperimentAPI(t *testing.T) {
	ids := Experiments()
	if len(ids) != 18 {
		t.Fatalf("Experiments lists %d ids", len(ids))
	}
	opts := DefaultExperimentOptions()
	opts.Scale = 0.01
	fig, _, err := RunExperiment("fig6", opts)
	if err != nil {
		t.Fatal(err)
	}
	if out := fig.Render(); !strings.Contains(out, "fig6") || !strings.Contains(out, "hops") {
		t.Errorf("experiment output malformed:\n%s", out)
	}
	fig, _, err = RunExperiment("eq", opts)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "eq" || len(fig.Series) == 0 {
		t.Error("structured figure malformed")
	}
	if _, _, err := RunExperiment("nope", DefaultExperimentOptions()); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, _, err := RunExperiment("fig6", ExperimentOptions{Scale: 0.01}); err == nil {
		t.Error("zero-value Config accepted; it must fail Validate, not fall back to the prototype")
	}
	bad := opts
	bad.Scale = -1
	if _, _, err := RunExperiment("fig6", bad); err == nil {
		t.Error("negative scale accepted")
	}
}

// TestMachineFlags: empty flags leave the Config as it is, each flag
// writes exactly its own fields, and a bad spec fails with the Config
// untouched.
func TestMachineFlags(t *testing.T) {
	cfg := DefaultConfig()
	if err := (MachineFlags{}).Apply(&cfg); err != nil || !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Errorf("empty flags: %v; Config changed to %+v", err, cfg)
	}
	f := MachineFlags{Mesh: "8x6", Shards: 4, LinkLat: "x=100ns", Faults: "seed=3,drop=0.01", Bulk: "frame=4"}
	if err := f.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.MeshWidth, want.MeshHeight, want.Shards = 8, 6, 4
	want.LinkLat, _ = ParseLinkLatSpec(f.LinkLat)
	want.Faults, _ = ParseFaultPlan(f.Faults)
	want.BulkFrameLines = 4
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("Apply(%+v) = %+v, want %+v", f, cfg, want)
	}
	if err := Validate(cfg); err != nil {
		t.Errorf("applied Config invalid: %v", err)
	}
	for _, bad := range []MachineFlags{
		{Mesh: "0x4"}, {Mesh: "8x8", Bulk: "frame=0"}, {Mesh: "8x8", Faults: "drop=2"}, {Mesh: "8x8", LinkLat: "x=-1ns"},
	} {
		cfg := DefaultConfig()
		if err := bad.Apply(&cfg); err == nil {
			t.Errorf("Apply(%+v) accepted", bad)
		}
		if !reflect.DeepEqual(cfg, DefaultConfig()) {
			t.Errorf("Apply(%+v) failed but changed the Config to %+v", bad, cfg)
		}
	}
}

// TestExperimentSeedZero: the facade runs Seed as given, 0 included —
// seed 0 is a seed like any other, not a request for the default — so
// it renders exactly what the harness's generator renders at seed 0.
func TestExperimentSeedZero(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.Scale, opts.Seed = 0.01, 0
	fig, _, err := RunExperiment("fig10", opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := experiments.Lookup("fig10")
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.DefaultOptions()
	o.Scale, o.Seed = 0.01, 0
	want, err := gen(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := fig.Render(); got != want.Render() {
		t.Errorf("facade at seed 0 rendered\n%s\nharness at seed 0 rendered\n%s", got, want.Render())
	}
}

// TestRunExperimentRejectsNonFiniteScale: NaN and +Inf both slip past a
// "Scale <= 0" guard and then run every figure silently at its floor
// sizes, so the check must refuse them too.
func TestRunExperimentRejectsNonFiniteScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1)} {
		opts := DefaultExperimentOptions()
		opts.Scale = scale
		if _, _, err := RunExperiment("fig6", opts); err == nil {
			t.Errorf("Scale %v accepted", scale)
		}
	}
}

// TestNewRejectsInvalidConfig: a calibration Validate refuses comes back
// as its error, not as a panic from building the engine it implies.
func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HopLatency = 0
	sys, err := New(cfg)
	if err == nil || err.Error() != "params: latencies must be positive" {
		t.Fatalf("New with HopLatency 0 = %v, %v; want the calibration error", sys, err)
	}
}

func TestRunExperimentMetrics(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.Scale = 0.005
	fig, snap, err := RunExperiment("fig6", opts)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig6" {
		t.Errorf("fig.ID = %q", fig.ID)
	}
	if snap.Total("ncdsm_rmc_requests_total") == 0 {
		t.Error("merged snapshot has no RMC requests after fig6")
	}
	if len(snap.Nodes()) == 0 {
		t.Error("merged snapshot has no per-node views")
	}
}

func TestSystemMetricsFacade(t *testing.T) {
	sys := newSys(t)
	region, _ := sys.Region(1)
	ptr, err := region.GrowFrom(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := region.Access(AccessRequest{Pointer: ptr}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	snap := sys.Metrics()
	if snap.Total("ncdsm_rmc_requests_total") == 0 {
		t.Error("no RMC requests in facade snapshot after remote access")
	}
	if !strings.Contains(snap.Prometheus(), "ncdsm_rmc_requests_total") {
		t.Error("Prometheus rendering missing RMC family")
	}
}

func TestPhaseAPIThroughFacade(t *testing.T) {
	sys := newSys(t)
	region, _ := sys.Region(1)
	ptr, err := region.GrowFrom(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := region.Access(AccessRequest{Now: sys.Now(), Pointer: ptr, Write: true}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if flushed := region.BeginParallelRead(); flushed == 0 {
		t.Error("no dirty lines flushed entering the parallel phase")
	}
	if err := region.Access(AccessRequest{Now: sys.Now(), Core: 5, Pointer: ptr}); err != nil {
		t.Errorf("parallel read rejected: %v", err)
	}
	if err := region.Access(AccessRequest{Now: sys.Now(), Pointer: ptr, Write: true}); err == nil {
		t.Error("write accepted in parallel-read phase")
	}
	region.BeginSerial(0)
	if err := region.Access(AccessRequest{Now: sys.Now(), Pointer: ptr, Write: true}); err != nil {
		t.Errorf("serial write rejected: %v", err)
	}
	sys.Run()
}

func TestAccessRejectsMissingCore(t *testing.T) {
	sys := newSys(t)
	region, _ := sys.Region(1)
	ptr, err := region.GrowFrom(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cores := sys.Config().CoresPerNode
	for _, c := range []int{cores, -1} {
		if err := region.Access(AccessRequest{Now: sys.Now(), Core: c, Pointer: ptr}); err == nil {
			t.Errorf("access by core %d of a %d-core node accepted", c, cores)
		}
	}
	// The refused accesses must not have claimed the serial phase.
	if err := region.Access(AccessRequest{Now: sys.Now(), Core: 0, Pointer: ptr}); err != nil {
		t.Errorf("core 0 refused after the out-of-range accesses: %v", err)
	}
	sys.Run()
}

func TestTrimReturnsMemoryToPool(t *testing.T) {
	sys := newSys(t)
	region, _ := sys.Region(1)
	before := sys.PoolFree()
	ptr, err := region.Malloc(20 << 30) // all remote beyond private
	if err != nil {
		t.Fatal(err)
	}
	if sys.PoolFree() >= before {
		t.Fatal("malloc did not draw from the pool")
	}
	if err := region.Free(ptr); err != nil {
		t.Fatal(err)
	}
	released, err := region.Trim()
	if err != nil {
		t.Fatal(err)
	}
	if released == 0 {
		t.Fatal("trim released nothing")
	}
	if sys.PoolFree() != before {
		t.Errorf("pool = %d after trim, want %d restored", sys.PoolFree(), before)
	}
	if region.BorrowedBytes() != 0 {
		t.Errorf("still borrowing %d bytes after trim", region.BorrowedBytes())
	}
	// The region still works afterwards.
	if _, err := region.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyFacade(t *testing.T) {
	protos := ConsistencyProtocols()
	if len(protos) != 4 || protos[1] != "mesi" {
		t.Fatalf("ConsistencyProtocols = %v, want msi, mesi, rmc, rc", protos)
	}
	results, err := Litmus(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("empty litmus results")
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("%s/%s: verdict %+v deviates from expected %+v", r.Test, r.Protocol, r.Verdict, r.Expected)
		}
	}
	subset, err := Litmus(DefaultConfig(), "rc")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset)*4 != len(results) {
		t.Errorf("rc-only run returned %d results vs %d for all protocols", len(subset), len(results))
	}
	report, err := LitmusReport(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sb", "iriw", "msi", "rc", "SC=pass", "SC=FAIL", "ok"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "MISMATCH") {
		t.Errorf("report contains a mismatch:\n%s", report)
	}
	if _, err := Litmus(DefaultConfig(), "moesi"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestExploreFacade drives the schedule-exploration surface end to end
// at a small budget: clean results for every (test, protocol) pair, a
// rendered table with zero problems, and the determinism contract at
// the facade level.
func TestExploreFacade(t *testing.T) {
	spec := DefaultExploreSpec()
	spec.Samples = 50
	results, err := Explore(DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("empty explore results")
	}
	for _, r := range results {
		if probs := r.Problems(); len(probs) != 0 {
			t.Errorf("%s/%s: %v", r.Test, r.Protocol, probs)
		}
	}
	report, problems, err := ExploreReport(DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if problems != 0 {
		t.Errorf("%d problems reported:\n%s", problems, report)
	}
	for _, want := range []string{"sb", "mesi", "exhaustive", "sampled", "schedules"} {
		if !strings.Contains(report, want) {
			t.Errorf("explore report missing %q:\n%s", want, report)
		}
	}
	spec.Parallel = 8
	report8, _, err := ExploreReport(DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if report != report8 {
		t.Error("explore report differs between Parallel 1 and 8")
	}
}
