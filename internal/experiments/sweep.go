package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/params"
)

// sweepKnob is one -sweep knob: its name and the Params field it sets,
// a duration or an integer.
type sweepKnob struct {
	name string
	dur  *params.Duration
	num  *int
}

// sweepKnobs is the one ordered list of -sweep knobs, bound to p's
// fields; SweepableParams lists the names in this order.
func sweepKnobs(p *params.Params) []sweepKnob {
	return []sweepKnob{
		{name: "RMCClientOccupancy", dur: &p.RMCClientOccupancy},
		{name: "RMCServerOccupancy", dur: &p.RMCServerOccupancy},
		{name: "RMCRetryPenalty", dur: &p.RMCRetryPenalty},
		{name: "RMCRetryWaste", dur: &p.RMCRetryWaste},
		{name: "HopLatency", dur: &p.HopLatency},
		{name: "DRAMLatency", dur: &p.DRAMLatency},
		{name: "SwapTrapOverhead", dur: &p.SwapTrapOverhead},
		{name: "SwapPageTransfer", dur: &p.SwapPageTransfer},
		{name: "RMCQueueDepth", num: &p.RMCQueueDepth},
		{name: "RemoteOutstanding", num: &p.RemoteOutstanding},
		{name: "PrefetchDepth", num: &p.PrefetchDepth},
		{name: "SwapResidentPages", num: &p.SwapResidentPages},
	}
}

// ApplyParam sets one named calibration knob from its string form, for
// the harness's -sweep flag and ad-hoc sensitivity studies. Duration
// knobs accept Go duration syntax ("420ns", "1.5us"); integer knobs
// accept plain integers. SweepableParams lists the accepted names.
func ApplyParam(p *params.Params, key, value string) error {
	for _, k := range sweepKnobs(p) {
		if k.name != key {
			continue
		}
		if k.dur != nil {
			d, err := time.ParseDuration(value)
			if err != nil {
				return fmt.Errorf("experiments: %s: %w", key, err)
			}
			*k.dur = params.FromStd(d)
			return nil
		}
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", key, err)
		}
		*k.num = n
		return nil
	}
	return fmt.Errorf("experiments: unknown sweep parameter %q (available: %s)",
		key, strings.Join(SweepableParams(), ", "))
}

// SweepableParams lists the knobs ApplyParam accepts.
func SweepableParams() []string {
	var names []string
	for _, k := range sweepKnobs(new(params.Params)) {
		names = append(names, k.name)
	}
	return names
}

// ParseSweep parses a "-sweep Key=v1,v2,v3" specification.
func ParseSweep(spec string) (key string, values []string, err error) {
	parts := strings.SplitN(spec, "=", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", nil, fmt.Errorf("experiments: sweep spec %q, want Key=v1,v2,...", spec)
	}
	values = strings.Split(parts[1], ",")
	for _, v := range values {
		if strings.TrimSpace(v) == "" {
			return "", nil, fmt.Errorf("experiments: empty value in sweep spec %q", spec)
		}
	}
	return parts[0], values, nil
}
