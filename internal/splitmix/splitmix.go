// Package splitmix is the simulator's one splitmix64 (Steele, Lea and
// Flood, OOPSLA 2014): a pure hash and a seeded stream over it. The
// determinism contract outlives Go releases, so the draws that fault
// injection and schedule sampling make, and the hash index's probe
// order, must not depend on math/rand's generator staying put.
package splitmix

// Gamma is the golden-ratio step between a stream's successive states.
const Gamma = 0x9e3779b97f4a7c15

// Hash mixes x + Gamma through the splitmix64 finalizer: the first value
// of the stream seeded with x.
func Hash(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a splitmix64 generator. The zero value is the seed-0 stream.
type Stream struct{ state uint64 }

// New returns the stream seeded with seed.
func New(seed uint64) Stream { return Stream{state: seed} }

// Next returns Hash of the current state and advances the state by Gamma.
func (s *Stream) Next() uint64 {
	v := Hash(s.state)
	s.state += Gamma
	return v
}
