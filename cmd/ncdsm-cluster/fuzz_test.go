package main

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/addr"
)

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

// FuzzParseReserve checks that parseReserve never panics on any -reserve
// spec, that every spec it accepts names two nodes in 1..addr.MaxNode
// with a size equal to the exact (unwrapped) product of its number and
// unit, and that the parsed triple, rendered as req:donor:bytes,
// parses back to itself.
func FuzzParseReserve(f *testing.F) {
	for _, spec := range []string{
		"1:3:4GB", "2:16:512MB", "16:1:8192", "1:3:4gb", "1:2: 64KB ",
		"65537:65539:17179869185GB", "1:3:18446744073709551615KB", "0:3:1GB",
		"1:3", "a:b:c", "1:3:4TB", "16383:1:1", "16384:1:1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rs, err := parseReserve(spec)
		if err != nil {
			return
		}
		for _, n := range []addr.NodeID{rs.req, rs.donor} {
			if n < 1 || n > addr.MaxNode {
				t.Fatalf("%q accepted node %d outside 1..%d", spec, n, addr.MaxNode)
			}
		}
		if want := exactSize(rs.sizeText); want == nil || want.Cmp(new(big.Int).SetUint64(rs.size)) != 0 {
			t.Fatalf("%q parsed to %d bytes, exact size is %v", spec, rs.size, want)
		}
		text := fmt.Sprintf("%d:%d:%d", rs.req, rs.donor, rs.size)
		back, err := parseReserve(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, text, err)
		}
		if back.req != rs.req || back.donor != rs.donor || back.size != rs.size {
			t.Fatalf("%q renders as %q, which parses to %d:%d:%d", spec, text, back.req, back.donor, back.size)
		}
	})
}

// exactSize computes a size spec's byte count without wrapping, or nil
// if its number does not parse.
func exactSize(s string) *big.Int {
	u := strings.ToUpper(strings.TrimSpace(s))
	shift := uint(0)
	for suffix, sh := range map[string]uint{"GB": 30, "MB": 20, "KB": 10} {
		if strings.HasSuffix(u, suffix) {
			u, shift = strings.TrimSuffix(u, suffix), sh
			break
		}
	}
	n, ok := new(big.Int).SetString(strings.TrimSpace(u), 10)
	if !ok {
		return nil
	}
	return n.Lsh(n, shift)
}
