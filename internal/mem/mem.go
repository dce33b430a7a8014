// Package mem is the functional storage substrate: the bytes themselves.
//
// Each node owns a Store covering its local physical address space.
// Storage is sparse — 4 KiB frames materialize on first write — so a
// simulated 16 GB node costs only what the workload actually touches,
// while preserving exact read-after-write semantics across the cluster
// (data written through one node's RMC reads back identically through
// another mapping). Timing lives elsewhere; this package is purely
// functional and is shared by both evaluation layers.
package mem

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/params"
)

// Store is one node's sparse physical memory.
type Store struct {
	size   uint64
	frames map[uint64][]byte // frame index -> 4 KiB frame

	// FramesTouched counts frames ever materialized.
	FramesTouched uint64
}

// NewStore creates a store of the given byte capacity.
func NewStore(size uint64) (*Store, error) {
	if size == 0 || size%params.PageSize != 0 {
		return nil, fmt.Errorf("mem: size %d must be a positive multiple of %d", size, params.PageSize)
	}
	if size > addr.LocalSpace {
		return nil, fmt.Errorf("mem: size %d exceeds the local address space", size)
	}
	return &Store{size: size, frames: make(map[uint64][]byte)}, nil
}

func (s *Store) check(a addr.Phys, n int) error {
	if !a.IsLocal() {
		return fmt.Errorf("mem: %v carries a node prefix; stores hold local addresses only", a)
	}
	if n < 0 {
		return fmt.Errorf("mem: negative length %d", n)
	}
	if uint64(a)+uint64(n) > s.size {
		return fmt.Errorf("mem: access [%v, +%d) beyond %d-byte store", a, n, s.size)
	}
	return nil
}

// frame returns the frame containing byte offset off, materializing it if
// materialize is set; a nil return means an untouched (all-zero) frame.
func (s *Store) frame(off uint64, materialize bool) []byte {
	idx := off / params.PageSize
	f := s.frames[idx]
	if f == nil && materialize {
		f = make([]byte, params.PageSize)
		s.frames[idx] = f
		s.FramesTouched++
	}
	return f
}

// ReadAt copies len(dst) bytes starting at a into dst. Untouched memory
// reads as zeros, as DRAM scrubbed at boot would.
func (s *Store) ReadAt(a addr.Phys, dst []byte) error {
	if err := s.check(a, len(dst)); err != nil {
		return err
	}
	off := uint64(a)
	for len(dst) > 0 {
		in := off % params.PageSize
		n := params.PageSize - in
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		if f := s.frame(off, false); f != nil {
			copy(dst[:n], f[in:in+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
	return nil
}

// WriteAt copies src into the store starting at a.
func (s *Store) WriteAt(a addr.Phys, src []byte) error {
	if err := s.check(a, len(src)); err != nil {
		return err
	}
	off := uint64(a)
	for len(src) > 0 {
		in := off % params.PageSize
		n := params.PageSize - in
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		f := s.frame(off, true)
		copy(f[in:in+n], src[:n])
		src = src[n:]
		off += n
	}
	return nil
}
