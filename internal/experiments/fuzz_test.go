package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSweep checks that ParseSweep never panics on any -sweep spec
// and that every spec it accepts round-trips through key=v1,v2,…: the
// rendered key and values parse back to themselves.
func FuzzParseSweep(f *testing.F) {
	for _, spec := range []string{
		"HopLatency=100ns,200ns,300ns", "RMCClientOccupancy=200ns,420ns",
		"", "NoEquals", "=v", "K=", "K=a,,b",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		key, values, err := ParseSweep(spec)
		if err != nil {
			return
		}
		canon := key + "=" + strings.Join(values, ",")
		k, v, err := ParseSweep(canon)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, canon, err)
		}
		if k != key || !reflect.DeepEqual(v, values) {
			t.Fatalf("%q renders as %q, which parses to %q=%q, want %q=%q", spec, canon, k, v, key, values)
		}
	})
}
