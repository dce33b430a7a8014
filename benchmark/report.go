package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: each
// metric's unit, direction and bound.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// setResult is one set of runs: what -out writes and -compare reads.
type setResult struct {
	Host      hostInfo                    `json:"host"`
	Seed      int64                       `json:"seed"`
	Scale     float64                     `json:"scale"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

type hostInfo struct {
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

type workloadSummary struct {
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Failures  []string                  `json:"failures,omitempty"`
	Digest    string                    `json:"digest"`
	Metrics   map[string]*metricSummary `json:"metrics"`
	// HostFactor summarizes the timed ops' host factors.
	HostFactor *metricSummary `json:"host_factor,omitempty"`
}

// metricSummary reports a metric's median and quartiles over n ops. With
// ten ops no percentile beyond the quartiles has ten samples past it.
type metricSummary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarizeValues(v []float64) *metricSummary {
	s := &metricSummary{Median: median(v), N: len(v), Values: v}
	s.Q1, s.Q3 = quartiles(v)
	return s
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4), the default
// exclusive method; fewer than two values give the median twice.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m
	}
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func (s *metricSummary) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printTable prints each workload's metrics with units, medians,
// quartiles and op counts.
func printTable(w io.Writer, spec *benchSpec, set *setResult, traced bool) {
	metrics := spec.EndToEnd
	if traced {
		metrics = append(slices.Clone(metrics), spec.PerLayer...)
	}
	for _, name := range sortedKeys(set.Workloads) {
		s := set.Workloads[name]
		fmt.Fprintf(w, "== %s: %d ops, %d failed, sim digest %.16s\n", name, s.Attempted, s.Failed, s.Digest)
		for _, f := range s.Failures {
			fmt.Fprintf(w, "   FAILED %s\n", f)
		}
		row := func(name, unit string, ms *metricSummary) {
			fmt.Fprintf(w, "   %-24s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g n %d\n", name, unit, ms.Median, ms.Q1, ms.Q3, ms.N)
		}
		for _, m := range metrics {
			if ms := s.Metrics[m.Name]; ms != nil {
				row(m.Name, m.Unit, ms)
			}
		}
		if s.HostFactor != nil {
			row("(host factor)", "ratio", s.HostFactor)
		}
	}
}

// resultLine renders one workload's result as the single JSON line the
// benchmark ends with: the end-to-end metrics, or with trace the
// per-layer ones.
func resultLine(spec *benchSpec, s *workloadSummary, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := spec.EndToEnd
	if traced {
		metrics = spec.PerLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: s.Failed == 0, Attempted: s.Attempted, Failed: s.Failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		ms := s.Metrics[m.Name]
		if ms == nil {
			return "", fmt.Errorf("no successful op measured %s", m.Name)
		}
		out.Metrics[m.Name] = value{ms.Median, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (*setResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// sets and reports whether anything got worse: a metric beyond its
// bound, a failed op, or a changed sim digest.
func compareFiles(w io.Writer, spec *benchSpec, basePath, newPath string) (worse bool, err error) {
	base, err := readSet(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readSet(newPath)
	if err != nil {
		return false, err
	}
	if base.Seed != cur.Seed || base.Scale != cur.Scale {
		return false, fmt.Errorf("sets differ in seed (%d, %d) or scale (%g, %g)", base.Seed, cur.Seed, base.Scale, cur.Scale)
	}
	fmt.Fprintf(w, "%-14s %-15s %-6s %27s %27s %8s %6s  %s\n", "workload", "metric", "unit", "base median [q1, q3]", "new median [q1, q3]", "delta", "bound", "verdict")
	for _, name := range sortedKeys(cur.Workloads) {
		b, c := base.Workloads[name], cur.Workloads[name]
		if b == nil {
			fmt.Fprintf(w, "%-14s absent from %s\n", name, basePath)
			continue
		}
		for _, m := range spec.EndToEnd {
			bm, cm := b.Metrics[m.Name], c.Metrics[m.Name]
			if bm == nil || cm == nil {
				fmt.Fprintf(w, "%-14s %-15s missing\n", name, m.Name)
				worse = true
				continue
			}
			delta, v := verdict(m, bm, cm)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-14s %-15s %-6s %27s %27s %+7.1f%% %5.0f%%  %s\n", name, m.Name, m.Unit,
				fmtSummary(bm), fmtSummary(cm), 100*delta, 100*m.Bound, v)
		}
		fmt.Fprintf(w, "%-14s %-15s %-6s %27.3g %27.3g\n", name, "fail_frac", "ratio",
			float64(b.Failed)/float64(b.Attempted), float64(c.Failed)/float64(c.Attempted))
		sameDigest := b.Digest == c.Digest
		fmt.Fprintf(w, "%-14s %-15s %.16s → %.16s  %s\n", name, "sim digest", b.Digest, c.Digest,
			map[bool]string{true: "identical", false: "CHANGED"}[sameDigest])
		worse = worse || c.Failed > 0 || !sameDigest
	}
	return worse, nil
}

func fmtSummary(s *metricSummary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

// verdict compares a metric across two sets. delta is the relative
// change of the median, positive when worse. A metric whose spread
// exceeds its bound is unresolved unless every new op beats every base
// op; otherwise it is worse or better when the median moved past the
// bound, and the same within it.
func verdict(m metricSpec, base, cur *metricSummary) (delta float64, v string) {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	delta = sign * (cur.Median - base.Median) / base.Median
	dominates := true
	for _, c := range cur.Values {
		for _, b := range base.Values {
			dominates = dominates && sign*(c-b) < 0
		}
	}
	switch {
	case dominates:
		return delta, "better"
	case max(base.spread(), cur.spread()) > m.Bound:
		return delta, "unresolved"
	case delta > m.Bound:
		return delta, "worse"
	case -delta > m.Bound:
		return delta, "better"
	}
	return delta, "same"
}
