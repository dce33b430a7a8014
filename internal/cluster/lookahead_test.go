package cluster

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestPastDeliveryIsDiagnosed gives a 2-shard cluster a bound matrix
// that overstates every delivery bound, so the destination shard runs
// far past a cross-shard read's arrival. The barrier must refuse to
// schedule the delivery in that shard's past with a message naming the
// intent (time, source, sequence), its arrival, the destination shard
// and the limit the shard ran to — not the engine's bare "scheduling
// before now".
func TestPastDeliveryIsDiagnosed(t *testing.T) {
	p := params.Default()
	p.Shards = 2
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	set := c.Set()
	// On the 4x4 mesh split 2x1, node 1 is on shard 0 and node 3 on
	// shard 1.
	src := c.MustNode(1)
	if c.part.ShardOf(1) != 0 || c.part.ShardOf(3) != 1 {
		t.Fatalf("nodes 1 and 3 on shards %d and %d, want 0 and 1", c.part.ShardOf(1), c.part.ShardOf(3))
	}
	const inflated = sim.Time(1_000_000_000) // 1 ms: no frame is that slow
	set.ConfigureLookahead([][]sim.Time{{inflated, inflated}, {inflated, inflated}}, 0)
	const busyUntil = sim.Time(500_000_000)
	set.Engine(1).At(busyUntil, func() {}) // shard 1 runs to here in its first window
	src.Issue(0, 0, cpu.Access{Addr: addr.Phys(0x10000).WithNode(3)}, false, func(sim.Time) {})

	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		set.Run()
		return "no panic"
	}()
	re := regexp.MustCompile(`^rmc: intent t=(\d+) src=1 seq=1 arrives at (\d+) in shard 1's past: the shard ran to limit (\d+) \(now (\d+)\)`)
	m := re.FindStringSubmatch(msg)
	if m == nil {
		t.Fatalf("Run panicked with %q, want the diagnosed past delivery", msg)
	}
	var v [4]sim.Time
	for i := range v {
		if v[i], err = strconv.ParseInt(m[i+1], 10, 64); err != nil {
			t.Fatal(err)
		}
	}
	sent, arrive, limit, now := v[0], v[1], v[2], v[3]
	if !(sent < arrive && arrive < now && now == busyUntil && now < limit) {
		t.Errorf("diagnosis %q: want sent < arrival < now = %d < limit", msg, busyUntil)
	}
}
