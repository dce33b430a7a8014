package faults

import (
	"reflect"
	"testing"
)

// FuzzParsePlan checks that the -faults parser never panics on any spec
// and that String renders exactly what Parse reads: for every plan x
// Parse accepts, Parse(x.String()) deep-equals x, up to the window order
// String canonicalizes.
func FuzzParsePlan(f *testing.F) {
	f.Add("")
	f.Add("stall=7@5us:9us,down=6-7@0:50us,storm=6@1us:2us,stall=7@5us:8us,down=2-6@10us:20us")
	for _, spec := range planSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		x, err := Parse(spec)
		if err != nil {
			return
		}
		y, err := Parse(x.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, x.String(), err)
		}
		if want := x.canonical(); !reflect.DeepEqual(*y, want) {
			t.Fatalf("%q renders as %q, which parses to %+v, want %+v", spec, x.String(), *y, want)
		}
	})
}
