package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	ncdsm "repro"
)

// TestMain lets a test run the command itself: with NCDSM_BENCH_MAIN
// set, the test binary is ncdsm-bench, run on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("NCDSM_BENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs ncdsm-bench on args in a child process and returns what
// it printed and its exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NCDSM_BENCH_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestSelectIDs(t *testing.T) {
	cases := []struct {
		fig, table string
		want       []string
		wantErr    bool
	}{
		{"7", "", []string{"fig7"}, false},
		{"fig9", "", []string{"fig9"}, false},
		{"A", "", []string{"A"}, false},
		{"eq", "", []string{"eq"}, false},
		{"", "1", []string{"table1"}, false},
		{"", "table1", []string{"table1"}, false},
		{"6", "1", []string{"fig6", "table1"}, false},
		{"", "2", nil, true},
		{"", "", nil, false},
		{"99", "", nil, true},
		{"nope", "", nil, true},
		{"fig99", "1", nil, true},
	}
	for _, c := range cases {
		got, err := selectIDs(c.fig, c.table)
		if (err != nil) != c.wantErr {
			t.Errorf("selectIDs(%q, %q) err = %v", c.fig, c.table, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("selectIDs(%q, %q) = %v, want %v", c.fig, c.table, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("selectIDs(%q, %q) = %v, want %v", c.fig, c.table, got, c.want)
			}
		}
	}
}

func TestSelectAllCoversRegistry(t *testing.T) {
	ids, err := selectIDs("all", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 14 {
		t.Errorf("'all' selected only %d experiments", len(ids))
	}
}

// TestSweepTakesThePlainPath: a -sweep value runs the plain run's
// options with one knob set, down the same path. Sweeping RMCQueueDepth
// to its calibrated value must print exactly the plain run's bytes after
// the sweep header (wall-clock "[generated in" lines aside).
func TestSweepTakesThePlainPath(t *testing.T) {
	if d := ncdsm.DefaultConfig().RMCQueueDepth; d != 1 {
		t.Fatalf("calibrated RMCQueueDepth is %d; the sweep below must set the calibrated value", d)
	}
	timing := regexp.MustCompile(`(?m)^\[generated in .*\n`)
	args := []string{"-fig", "7", "-scale", "0.02", "-metrics", "prom"}
	plain, stderr, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("plain run exited %d: %s", code, stderr)
	}
	swept, stderr, code := runCLI(t, append(args, "-sweep", "RMCQueueDepth=1")...)
	if code != 0 {
		t.Fatalf("swept run exited %d: %s", code, stderr)
	}
	const header = "--- RMCQueueDepth = 1 ---\n"
	body, ok := strings.CutPrefix(swept, header)
	if !ok {
		t.Fatalf("swept output does not open with %q:\n%s", header, swept)
	}
	if got, want := timing.ReplaceAllString(body, ""), timing.ReplaceAllString(plain, ""); got != want {
		t.Errorf("swept run printed\n%s\nplain run printed\n%s", got, want)
	}
	if !strings.Contains(plain, "ncdsm_rmc_requests_total") {
		t.Errorf("plain run printed no metrics snapshot:\n%s", plain)
	}
}

// TestMetricsOutput: -metrics json prints, after the figure, exactly
// encoding/json's indented rendering of RunExperiment's merged
// snapshot, and -metrics prom its Prometheus text and a blank line.
// Both stream through the command's buffered writer.
func TestMetricsOutput(t *testing.T) {
	opts := ncdsm.DefaultExperimentOptions()
	opts.Scale = 0.02
	_, snap, err := ncdsm.RunExperiment("fig7", opts)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for format, want := range map[string]string{"json": string(js) + "\n", "prom": snap.Prometheus() + "\n"} {
		stdout, stderr, code := runCLI(t, "-fig", "7", "-scale", "0.02", "-metrics", format)
		if code != 0 {
			t.Fatalf("-metrics %s exited %d: %s", format, code, stderr)
		}
		_, got, ok := strings.Cut(stdout, " at scale 0.02]\n\n")
		if !ok {
			t.Fatalf("-metrics %s printed no figure footer:\n%s", format, stdout)
		}
		if got != want {
			t.Errorf("-metrics %s printed\n%s\nwant\n%s", format, got, want)
		}
	}
}

// TestUsageErrorsRefusedBeforeWork: a bad machine spec, sweep, output
// format, experiment id or negative -parallel exits 2 before any
// experiment runs, so nothing reaches stdout — on plain and -sweep runs
// alike.
func TestUsageErrorsRefusedBeforeWork(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-fig", "99"}, `unknown experiment "fig99" (see -list)`},
		{[]string{"-fig", "99", "-sweep", "RMCQueueDepth=1"}, `unknown experiment "fig99" (see -list)`},
		{[]string{"-fig", "9", "-scale", "0.02", "-format", "xml", "-sweep", "RMCQueueDepth=1"}, `unknown format "xml"`},
		{[]string{"-fig", "9", "-scale", "0.02", "-metrics", "xml"}, `unknown -metrics format "xml" (want prom or json)`},
		{[]string{"-fig", "6", "-scale", "0.02", "-sweep", "RMCQueueDepth=1,x"}, `experiments: RMCQueueDepth: strconv.Atoi: parsing "x": invalid syntax`},
		{[]string{"-fig", "6", "-mesh", "0x4"}, `ncdsm: mesh spec "0x4" must be WxH with both dimensions >= 2`},
		{[]string{"-fig", "6", "-bulk", "frame=0"}, "params: bulk frame=0 must be positive (omit frame to keep the default)"},
		{[]string{"-fig", "6", "-faults", "drop=2"}, "faults: drop probability 2 outside [0,1]"},
		{[]string{"-fig", "6", "-linklat", "x=-1ns"}, "params: linklat x=-1ns must be positive (omit x to keep the uniform hop latency)"},
		{[]string{"-fig", "6", "-scale", "0.02", "-parallel", "-1"}, "-parallel -1: want 0 (all cores) or a worker count"},
		{[]string{"-fig", "6", "-parallel", "-1", "-sweep", "RMCQueueDepth=1,2"}, "-parallel -1: want 0 (all cores) or a worker count"},
	} {
		stdout, stderr, code := runCLI(t, tc.args...)
		if want := "ncdsm-bench: " + tc.stderr + "\n"; code != 2 || stdout != "" || stderr != want {
			t.Errorf("ncdsm-bench %s: exit %d, stderr %q, stdout %q; want exit 2, stderr %q and no output",
				strings.Join(tc.args, " "), code, stderr, stdout, want)
		}
	}
}

// TestBadScaleRefusedBeforeWork: a -scale RunExperiment refuses, zero,
// one whose scaled counts overflow an int, or one whose b-tree key draw
// no allocation can hold, exits 1 before any figure prints. An
// overflowing scale used to run every point at its floor size and exit
// 0; an unallocatable key draw used to panic inside Fig 9.
func TestBadScaleRefusedBeforeWork(t *testing.T) {
	for _, tc := range []struct{ fig, id, scale, stderr string }{
		{"6", "fig6", "0", "experiments: Scale must be positive and finite (got 0)"},
		{"6", "fig6", "1e20", "experiments: Scale 1e+20 overflows the scaled count 10000000 × 1e+20"},
		{"9", "fig9", "1e11", "experiments: Scale 1e+11 draws 8e+18 bytes of keys, past the 281474976710656 bytes one allocation can take"},
	} {
		stdout, stderr, code := runCLI(t, "-fig", tc.fig, "-scale", tc.scale)
		if want := "ncdsm-bench: " + tc.id + ": " + tc.stderr + "\n"; code != 1 || stdout != "" || stderr != want {
			t.Errorf("ncdsm-bench -fig %s -scale %s: exit %d, stderr %q, stdout %q; want exit 1, stderr %q and no output",
				tc.fig, tc.scale, code, stderr, stdout, want)
		}
	}
}
