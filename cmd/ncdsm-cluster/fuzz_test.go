package main

import "testing"

// FuzzParseExplore checks that parseExplore never panics on any -explore
// spec and that every spec it accepts round-trips through
// ExploreSpec.String. Parallel comes from the -parallel flag, not the
// spec, so both parses get the same worker count.
func FuzzParseExplore(f *testing.F) {
	for _, spec := range []string{
		"exhaustive:6,sample:300:1", "exhaustive:6,sample:500:1", "exhaustive:6,sample:50:1",
		"sample:2000:7", "exhaustive:8", "sample:100", "sample:100:42", " exhaustive:4 , sample:9:3",
		"", "exhaustive:-1", "sample:0", "sample:1:2:3",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := parseExplore(spec, 1)
		if err != nil {
			return
		}
		back, err := parseExplore(s.String(), 1)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, s.String(), err)
		}
		if back != s {
			t.Fatalf("%q renders as %q, which parses to %+v, want %+v", spec, s.String(), back, s)
		}
	})
}
