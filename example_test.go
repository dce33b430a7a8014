package ncdsm_test

import (
	"fmt"
	"log"

	ncdsm "repro"
)

// Example builds the 16-node prototype, lets node 1's process allocate
// more memory than its motherboard holds, and reads it back through the
// simulated RMC path.
func Example() {
	sys, err := ncdsm.New(ncdsm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		log.Fatal(err)
	}
	region.SetPlacement(ncdsm.PlacementNearest)

	// 24 GB on a node with 8 GB of private memory: the heap borrows the
	// rest from neighbors via the reservation protocol.
	ptr, err := region.Malloc(24 << 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("borrowed %d GB from other nodes\n", region.BorrowedBytes()>>30)

	if err := region.Write(ptr+20<<30, []byte("remote bytes")); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 12)
	if err := region.Read(ptr+20<<30, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %s\n", buf)
	// Output:
	// borrowed 18 GB from other nodes
	// read back: remote bytes
}

// ExampleRegion_AccessBatch hands the memory system a batch of timed
// loads against borrowed memory — the batch-first discipline: the
// workload submits its whole access list and lets the simulated
// windows and queues pipeline it. A single load is just a batch of one
// (Region.Access is sugar for exactly that).
func ExampleRegion_AccessBatch() {
	sys, err := ncdsm.New(ncdsm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		log.Fatal(err)
	}
	ptr, err := region.GrowFrom(2, 1<<20) // node 2 is one mesh hop away
	if err != nil {
		log.Fatal(err)
	}
	var last ncdsm.Time
	batch := make([]ncdsm.AccessRequest, 4)
	for i := range batch {
		batch[i] = ncdsm.AccessRequest{
			Pointer: ptr + ncdsm.Pointer(i*64),
			Done:    func(t ncdsm.Time) { last = t },
		}
	}
	if err := region.AccessBatch(batch); err != nil {
		log.Fatal(err)
	}
	sys.Run()
	fmt.Printf("4 cold remote loads drained at %.2f µs\n", float64(last)/1e6)
	// Output:
	// 4 cold remote loads drained at 2.41 µs
}

// ExampleRegion_ReadBulk gathers a 4 KiB span of borrowed memory as one
// doorbell-batched scatter-gather burst: one RMC descriptor, multi-line
// data frames, one cumulative ack — instead of 64 per-line round trips.
func ExampleRegion_ReadBulk() {
	sys, err := ncdsm.New(ncdsm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		log.Fatal(err)
	}
	ptr, err := region.GrowFrom(2, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	var done ncdsm.Time
	sink := make([]byte, 4<<10)
	err = region.ReadBulk(ptr, []ncdsm.Span{{Bytes: 4 << 10}}, sink,
		func(t ncdsm.Time, err error) {
			if err != nil {
				log.Fatal(err)
			}
			done = t
		})
	if err != nil {
		log.Fatal(err)
	}
	sys.Run()
	fmt.Printf("64 remote lines, one burst: %.2f µs\n", float64(done)/1e6)
	// Output:
	// 64 remote lines, one burst: 2.11 µs
}

// ExampleRunExperiment regenerates a paper figure programmatically.
func ExampleRunExperiment() {
	opts := ncdsm.DefaultExperimentOptions()
	opts.Scale = 0.01
	fig, _, err := ncdsm.RunExperiment("eq", opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig.ID, "has", len(fig.Series), "series")
	// Output:
	// eq has 4 series
}
