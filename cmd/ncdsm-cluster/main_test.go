package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"

	ncdsmfacade "repro"
)

// TestMain lets a test run the command itself: with NCDSM_CLUSTER_MAIN
// set, the test binary is ncdsm-cluster, run on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("NCDSM_CLUSTER_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs ncdsm-cluster on args in a child process and returns its
// exit code and output.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NCDSM_CLUSTER_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// TestUsageErrorsRefusedBeforeWork: a bad machine spec or -metrics
// format, a mesh too small for the -regions layout, or an -explore run
// without -consistency or with a negative -parallel, exits 1 before the
// system is built, so nothing reaches stdout — not the banner, not the
// -stats workload.
func TestUsageErrorsRefusedBeforeWork(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-stats", "-metrics", "xml"}, `unknown -metrics format "xml" (want prom or json)`},
		{[]string{"-stats", "-mesh", "0x4"}, `ncdsm: mesh spec "0x4" must be WxH with both dimensions >= 2`},
		{[]string{"-stats", "-bulk", "frame=0"}, "params: bulk frame=0 must be positive (omit frame to keep the default)"},
		{[]string{"-stats", "-faults", "drop=2"}, "faults: drop probability 2 outside [0,1]"},
		{[]string{"-stats", "-linklat", "x=-1ns"}, "params: linklat x=-1ns must be positive (omit x to keep the uniform hop latency)"},
		{[]string{"-bulk", "on", "-shards", "4"}, "params: the bulk data plane is not shard-partitioned; it requires -shards 1, got 4"},
		{[]string{"-regions", "-mesh", "2x2"}, "-regions needs at least 5 nodes for the Figure 1 layout; the 2x2 mesh has 4"},
		{[]string{"-consistency", "msi", "-explore", "exhaustive:4", "-parallel", "-1"}, "-parallel -1: want 0 (all cores) or a worker count"},
		{[]string{"-explore", "exhaustive:4"}, "-explore needs -consistency to select protocols"},
	} {
		code, stdout, stderr := runMain(t, tc.args...)
		if want := "ncdsm-cluster: " + tc.stderr + "\n"; code != 1 || stdout != "" || stderr != want {
			t.Errorf("ncdsm-cluster %s: exit %d, stderr %q, stdout %q; want exit 1, stderr %q and no output",
				strings.Join(tc.args, " "), code, stderr, stdout, want)
		}
	}
}

// TestRegionsReadsItsConfig: the -regions demo reports the pool of the
// mesh it was given, not the default 4x4's, and lists each region's
// donors in node order.
func TestRegionsReadsItsConfig(t *testing.T) {
	code, stdout, stderr := runMain(t, "-regions", "-mesh", "8x8")
	if code != 0 {
		t.Fatalf("ncdsm-cluster -regions -mesh 8x8: exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		"region  3: private  8 GB + 8 GB borrowed from node 2 (4 GB) node 4 (4 GB); effective 16 GB\n",
		"cluster pool free: 502 GB of 512 GB\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]uint64{
		"4GB":   4 << 30,
		"512MB": 512 << 20,
		"64KB":  64 << 10,
		"8192":  8192,
		" 2gb ": 2 << 30,
		"1 MB":  1 << 20,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil {
			t.Errorf("parseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseSize(%q) = %d, want %d", in, got, want)
		}
	}
	// The last two overflow 64 bits; unchecked, they wrap to 1 GiB and
	// 2^64-1024 bytes.
	for _, bad := range []string{"", "abc", "GB", "-4GB", "4TBx", "17179869185GB", "18446744073709551615KB"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) accepted", bad)
		}
	}
}

// TestWalkReservation: node identifiers are checked, not wrapped.
// NodeID is a uint16, so unchecked, 65537:65539 reserves from node 3
// for node 1.
func TestWalkReservation(t *testing.T) {
	sys, err := ncdsmfacade.New(ncdsmfacade.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := walkReservation(sys, "1:3:4GB"); err != nil {
		t.Errorf("walkReservation(1:3:4GB): %v", err)
	}
	for _, bad := range []string{
		"65537:65539:17179869185GB", "65537:3:1GB", "1:65539:1GB",
		"0:3:1GB", "-1:3:1GB", "1:3", "1:3:4TB", "1:17:1GB",
	} {
		if err := walkReservation(sys, bad); err == nil {
			t.Errorf("walkReservation(%q) accepted", bad)
		}
	}
}

func TestParseProtocols(t *testing.T) {
	for _, all := range []string{"all", "", "  all "} {
		got, err := parseProtocols(all)
		if err != nil || got != nil {
			t.Errorf("parseProtocols(%q) = %v, %v; want the nil everything-sentinel", all, got, err)
		}
	}
	got, err := parseProtocols("msi, rc")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"msi", "rc"}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseProtocols = %v, want %v", got, want)
	}
	if got, err := parseProtocols("mesi"); err != nil || !reflect.DeepEqual(got, []string{"mesi"}) {
		t.Errorf("parseProtocols(mesi) = %v, %v; want the MESI comparator", got, err)
	}
	for _, bad := range []string{"moesi", "msi,tso", ","} {
		if _, err := parseProtocols(bad); err == nil {
			t.Errorf("parseProtocols(%q) accepted", bad)
		}
	}
}

// TestParseExplore covers the -explore grammar: part combinations over
// the defaults, and every malformed shape rejected.
func TestParseExplore(t *testing.T) {
	def := ncdsmfacade.DefaultExploreSpec()
	cases := map[string]ncdsmfacade.ExploreSpec{
		"exhaustive:8":               {MaxDepth: 8, Samples: def.Samples, Seed: def.Seed, Parallel: 1},
		"sample:100":                 {MaxDepth: def.MaxDepth, Samples: 100, Seed: def.Seed, Parallel: 1},
		"sample:100:42":              {MaxDepth: def.MaxDepth, Samples: 100, Seed: 42, Parallel: 1},
		"exhaustive:6,sample:500:1":  {MaxDepth: 6, Samples: 500, Seed: 1, Parallel: 1},
		" exhaustive:4 , sample:9:3": {MaxDepth: 4, Samples: 9, Seed: 3, Parallel: 1},
	}
	for in, want := range cases {
		got, err := parseExplore(in, 1)
		if err != nil {
			t.Errorf("parseExplore(%q): %v", in, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseExplore(%q) = %+v, want %+v", in, got, want)
		}
	}
	// parallel 0 means all cores.
	got, err := parseExplore("exhaustive:6", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parallel != runtime.GOMAXPROCS(0) {
		t.Errorf("parallel 0 resolved to %d workers, want GOMAXPROCS", got.Parallel)
	}
	for _, bad := range []string{"", "exhaustive", "exhaustive:x", "exhaustive:-1", "sample:0",
		"sample:10:z", "depth:4", "exhaustive:6:9", "sample:1:2:3"} {
		if _, err := parseExplore(bad, 1); err == nil {
			t.Errorf("parseExplore(%q) accepted", bad)
		}
	}
	if _, err := parseExplore("exhaustive:6", -1); err == nil {
		t.Error("parseExplore accepted parallel -1")
	}
}

// TestRunExplore drives the exploration CLI path end to end: the clean
// protocols must explore problem-free at a small budget, and unknown
// protocols must be rejected before any work runs.
func TestRunExplore(t *testing.T) {
	cfg := ncdsmfacade.DefaultConfig()
	spec, err := parseExplore("exhaustive:6,sample:50:1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := runExplore(cfg, "all", spec); err != nil {
		t.Errorf("runExplore(all): %v", err)
	}
	if err := runExplore(cfg, "msi,mesi", spec); err != nil {
		t.Errorf("runExplore(msi,mesi): %v", err)
	}
	if err := runExplore(cfg, "nope", spec); err == nil {
		t.Error("runExplore accepted an unknown protocol")
	}
}

// TestLitmusTraceRendering pins the replayable trace runLitmus prints
// for a deviating outcome: the schedule and every history event must be
// present, because that pair is what reproduces the deviation.
func TestLitmusTraceRendering(t *testing.T) {
	results, err := ncdsmfacade.Litmus(ncdsmfacade.DefaultConfig(), "rmc")
	if err != nil {
		t.Fatal(err)
	}
	var sb *ncdsmfacade.LitmusOutcome
	for i := range results {
		if results[i].Test == "sb" {
			sb = &results[i]
		}
	}
	if sb == nil {
		t.Fatal("sb outcome missing from the suite")
	}
	tr := ncdsmfacade.LitmusTrace(*sb)
	for _, want := range []string{"schedule 0,1,0,1", "SC=FAIL", "n0: W x0 = 1", "step 3"} {
		if !strings.Contains(tr, want) {
			t.Errorf("litmus trace missing %q:\n%s", want, tr)
		}
	}
}

// TestRunLitmus drives the CLI path end to end: the suite must run and
// every outcome must match its protocol's expectation, both for the
// full set and a subset.
func TestRunLitmus(t *testing.T) {
	cfg := ncdsmfacade.DefaultConfig()
	if err := runLitmus(cfg, "all"); err != nil {
		t.Errorf("runLitmus(all): %v", err)
	}
	if err := runLitmus(cfg, "msi"); err != nil {
		t.Errorf("runLitmus(msi): %v", err)
	}
	if err := runLitmus(cfg, "nope"); err == nil {
		t.Error("runLitmus accepted an unknown protocol")
	}
}
