package ncdsm

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/params"
)

// FuzzParseMesh checks the -mesh parser and the node-count validation
// behind it: no spec panics, the empty spec keeps the default, an
// accepted spec round-trips through its canonical "WxH" rendering, and
// default params with the parsed mesh validate exactly when the true
// (overflow-free) node count fits the prefix space — any larger mesh,
// including one whose int product wraps, fails with the node-count
// error.
func FuzzParseMesh(f *testing.F) {
	for _, s := range []string{"16x16", "32x32", "2x2", "1x4", "x", "16x",
		"4294967296x4294967296", "3037000500x3037000500"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, h, err := ParseMesh(spec)
		if spec == "" {
			if w != 0 || h != 0 || err != nil {
				t.Fatalf("empty spec = (%d, %d, %v), want (0, 0, nil)", w, h, err)
			}
			return
		}
		if err != nil {
			return
		}
		canon := fmt.Sprintf("%dx%d", w, h)
		if w2, h2, err := ParseMesh(canon); err != nil || w2 != w || h2 != h {
			t.Fatalf("%q parsed as %dx%d, but %q re-parses as (%d, %d, %v)", spec, w, h, canon, w2, h2, err)
		}
		cfg := DefaultConfig()
		cfg.MeshWidth, cfg.MeshHeight = w, h
		hi, lo := bits.Mul64(uint64(w), uint64(h)) // w, h >= 2 once accepted
		fits := hi == 0 && lo < 1<<params.NodePrefixBits
		switch err := cfg.Validate(); {
		case fits && err != nil:
			t.Fatalf("mesh %s (%d nodes) rejected: %v", canon, lo, err)
		case !fits && err == nil:
			t.Fatalf("mesh %s overflows the %d-bit prefix space but validates", canon, params.NodePrefixBits)
		case !fits && !strings.Contains(err.Error(), "node prefix space"):
			t.Fatalf("mesh %s failed with %v, want the node-count error", canon, err)
		}
	})
}
