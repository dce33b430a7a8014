package swap

import (
	"container/list"
	"math/rand"
	"testing"
	"testing/quick"
)

// oldPageCache is a verbatim oracle copy of the container/list + two-map
// LRU the intrusive implementation replaced. The property tests below
// replay seeded touch/flush interleavings against it event for event.
type oldPageCache struct {
	capacity int
	lru      *list.List
	pages    map[uint64]*list.Element
	dirty    map[uint64]bool

	Hits, Misses, Evictions, DirtyEvictions uint64
}

func newOldPageCache(capacity int) *oldPageCache {
	return &oldPageCache{
		capacity: capacity,
		lru:      list.New(),
		pages:    make(map[uint64]*list.Element),
		dirty:    make(map[uint64]bool),
	}
}

func (c *oldPageCache) Touch(page uint64, write bool) TouchResult {
	if el, ok := c.pages[page]; ok {
		c.lru.MoveToFront(el)
		if write {
			c.dirty[page] = true
		}
		c.Hits++
		return TouchResult{Hit: true}
	}
	c.Misses++
	var res TouchResult
	if c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		victim := back.Value.(uint64)
		c.lru.Remove(back)
		delete(c.pages, victim)
		res.Evicted, res.DidEvict = victim, true
		res.EvictedDirty = c.dirty[victim]
		delete(c.dirty, victim)
		c.Evictions++
		if res.EvictedDirty {
			c.DirtyEvictions++
		}
	}
	c.pages[page] = c.lru.PushFront(page)
	if write {
		c.dirty[page] = true
	}
	return res
}

func (c *oldPageCache) Flush() int {
	dirty := len(c.dirty)
	c.lru.Init()
	c.pages = make(map[uint64]*list.Element)
	c.dirty = make(map[uint64]bool)
	return dirty
}

// TestLRUOrderEquivalenceProperty: the intrusive index-based list makes
// exactly the same eviction decisions, in the same order, with the same
// dirty flags and counters, as the old implementation — on arbitrary
// touch sequences at arbitrary capacities. Each trace entry may repeat
// its page up to three times with its own read/write bits, so runs of
// MRU hits, and writes after a read hit, are common.
func TestLRUOrderEquivalenceProperty(t *testing.T) {
	f := func(trace []uint16, capSel uint8) bool {
		capacity := int(capSel%24) + 1
		neu, err := NewPageCache(capacity)
		if err != nil {
			return false
		}
		old := newOldPageCache(capacity)
		for i, v := range trace {
			page := uint64(v % 97)
			repeats := int(v>>8) % 4
			for r := 0; r <= repeats; r++ {
				write := v%3 == 0
				if r > 0 {
					write = v>>(9+r)&1 == 1
				}
				rn := neu.Touch(page, write)
				ro := old.Touch(page, write)
				if rn != ro {
					t.Logf("step %d.%d: Touch(%d,%v) = %+v, old %+v", i, r, page, write, rn, ro)
					return false
				}
			}
		}
		if neu.Hits != old.Hits || neu.Misses != old.Misses ||
			neu.Evictions != old.Evictions || neu.DirtyEvictions != old.DirtyEvictions {
			return false
		}
		if neu.Resident() != old.lru.Len() {
			return false
		}
		return neu.Flush() == old.Flush()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLRUEquivalenceLongSeededRun drives both implementations through a
// long mixed workload — including mid-stream flushes — far past the
// short traces quick.Check generates.
func TestLRUEquivalenceLongSeededRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 2, 7, 64, 257} {
		neu, err := NewPageCache(capacity)
		if err != nil {
			t.Fatal(err)
		}
		old := newOldPageCache(capacity)
		for i := 0; i < 50_000; i++ {
			page := uint64(rng.Intn(3 * capacity))
			write := rng.Intn(4) == 0
			if rn, ro := neu.Touch(page, write), old.Touch(page, write); rn != ro {
				t.Fatalf("capacity %d step %d: %+v vs old %+v", capacity, i, rn, ro)
			}
			if rng.Intn(10_000) == 0 {
				if dn, do := neu.Flush(), old.Flush(); dn != do {
					t.Fatalf("capacity %d step %d: Flush %d vs old %d", capacity, i, dn, do)
				}
			}
		}
		if neu.Hits != old.Hits || neu.Misses != old.Misses ||
			neu.Evictions != old.Evictions || neu.DirtyEvictions != old.DirtyEvictions {
			t.Fatalf("capacity %d: counters diverged", capacity)
		}
	}
}
