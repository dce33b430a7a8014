package params

import (
	"reflect"
	"testing"
)

// fuzzRoundTrip checks that parse never panics on any spec and that
// String renders exactly what parse reads: for every spec x that parse
// accepts, parse(x.String()) deep-equals x. The corpus starts from the
// empty spec and seeds.
func fuzzRoundTrip[T interface{ String() string }](f *testing.F, parse func(string) (T, error), seeds []string) {
	f.Add("")
	for _, spec := range seeds {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		x, err := parse(spec)
		if err != nil {
			return
		}
		y, err := parse(x.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, x.String(), err)
		}
		if !reflect.DeepEqual(y, x) {
			t.Fatalf("%q renders as %q, which parses to %+v, want %+v", spec, x.String(), y, x)
		}
	})
}

func FuzzParseLinkLat(f *testing.F) { fuzzRoundTrip(f, ParseLinkLat, linkLatSpecs) }

func FuzzParseBulk(f *testing.F) {
	fuzzRoundTrip(f, ParseBulk, append(bulkSpecs, "on", "frame=0", "maxframes=0"))
}
