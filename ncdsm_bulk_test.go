package ncdsm

import (
	"bytes"
	"strings"
	"testing"
)

// growMapped borrows size bytes from donor and returns the mapped base.
func growMapped(t *testing.T, r *Region, donor NodeID, size uint64) Pointer {
	t.Helper()
	p, err := r.GrowFrom(donor, size)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBulkScalarOracle is the redesign's contract: the same 4 KiB line
// set moved as 64 single-line accesses and as one ReadBulk burst must
// observe identical memory state, and the burst must cost
// deterministically less simulated time.
func TestBulkScalarOracle(t *testing.T) {
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i*11 + 7)
	}

	// Scalar: 64 dependent single-line timed accesses (reads; the data
	// was placed functionally, as the timed path requires).
	scalarSys := newSys(t)
	scalarRegion, err := scalarSys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	sp := growMapped(t, scalarRegion, 2, 1<<20)
	if err := scalarRegion.Write(sp, want); err != nil {
		t.Fatal(err)
	}
	var scalarDone Time
	var chain func(i int, now Time)
	chain = func(i int, now Time) {
		if i == 64 {
			scalarDone = now
			return
		}
		if err := scalarRegion.Access(AccessRequest{Now: now, Pointer: sp + Pointer(i*64), Done: func(ts Time) {
			chain(i+1, ts)
		}}); err != nil {
			t.Fatal(err)
		}
	}
	chain(0, 0)
	scalarSys.Run()
	scalarGot := make([]byte, 4096)
	if err := scalarRegion.Read(sp, scalarGot); err != nil {
		t.Fatal(err)
	}

	// Bulk: the same 64 lines as one scatter-gather burst.
	bulkSys := newSys(t)
	bulkRegion, err := bulkSys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	bp := growMapped(t, bulkRegion, 2, 1<<20)
	if err := bulkRegion.Write(bp, want); err != nil {
		t.Fatal(err)
	}
	sink := make([]byte, 4096)
	var bulkDone Time
	if err := bulkRegion.ReadBulk(bp, []Span{{Offset: 0, Bytes: 4096}}, sink, func(ts Time, err error) {
		if err != nil {
			t.Fatal(err)
		}
		bulkDone = ts
	}); err != nil {
		t.Fatal(err)
	}
	bulkSys.Run()

	if !bytes.Equal(sink, want) || !bytes.Equal(scalarGot, want) {
		t.Fatal("scalar and bulk observed different memory state")
	}
	if bulkDone == 0 || scalarDone == 0 {
		t.Fatalf("runs did not complete (scalar %d, bulk %d)", scalarDone, bulkDone)
	}
	if bulkDone*4 >= scalarDone {
		t.Errorf("4 KiB ReadBulk took %d ps vs %d ps for 64 Access calls; want at least 4x cheaper", bulkDone, scalarDone)
	}
	t.Logf("scalar %d ps, bulk %d ps (%.1fx)", scalarDone, bulkDone, float64(scalarDone)/float64(bulkDone))
}

func TestWriteBulkRoundTrip(t *testing.T) {
	sys := newSys(t)
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	p := growMapped(t, region, 3, 1<<20)
	// Two discontiguous spans — the columnar shape.
	payload := make([]byte, 3*4096)
	for i := range payload {
		payload[i] = byte(i ^ 0x6d)
	}
	spans := []Span{
		{Offset: 0, Bytes: 4096},
		{Offset: 16384, Bytes: 2 * 4096},
	}
	completed := false
	if err := region.WriteBulk(p, spans, payload, func(_ Time, err error) {
		if err != nil {
			t.Fatal(err)
		}
		completed = true
	}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !completed {
		t.Fatal("bulk write never completed")
	}
	got := make([]byte, 4096)
	if err := region.Read(p, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[:4096]) {
		t.Error("span 0 bytes wrong")
	}
	got2 := make([]byte, 2*4096)
	if err := region.Read(p+16384, got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, payload[4096:]) {
		t.Error("span 1 bytes wrong")
	}
	// The payload buffer came back intact (never recycled).
	for i := range payload {
		if payload[i] != byte(i^0x6d) {
			t.Fatal("write payload was mutated by the operation")
		}
	}
}

// TestBulkScatteredSpans: short spans at a stride never coalesce, and
// the RMC frames each span on its own, so a scatter-gather operation
// runs out of burst frames long before burst lines. It must split on
// the frame cap and still move every byte.
func TestBulkScatteredSpans(t *testing.T) {
	for _, tc := range []struct {
		frameLines, maxFrames int // burst geometry; 0 keeps the default
		spans, spanLines      int
	}{
		{0, 0, 257, 1},
		{0, 0, 1000, 1},
		{4, 64, 257, 5},
	} {
		cfg := DefaultConfig()
		if tc.frameLines != 0 {
			cfg.BulkFrameLines, cfg.BulkMaxFrames = tc.frameLines, tc.maxFrames
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		region, err := sys.Region(1)
		if err != nil {
			t.Fatal(err)
		}
		p := growMapped(t, region, 2, 1<<20)
		spanBytes := uint64(tc.spanLines * 64)
		spans := make([]Span, tc.spans)
		for i := range spans {
			// One line of gap after each span keeps them apart.
			spans[i] = Span{Offset: uint64(i) * (spanBytes + 64), Bytes: spanBytes}
		}
		want := make([]byte, tc.spans*int(spanBytes))
		for i := range want {
			want[i] = byte(i*7 + 3)
		}
		got := make([]byte, len(want))
		var errs []error
		record := func(_ Time, err error) {
			if err != nil {
				errs = append(errs, err)
			}
		}
		if err := region.WriteBulk(p, spans, want, record); err != nil {
			t.Fatalf("%+v: WriteBulk: %v", tc, err)
		}
		sys.Run()
		if err := region.ReadBulk(p, spans, got, record); err != nil {
			t.Fatalf("%+v: ReadBulk: %v", tc, err)
		}
		sys.Run()
		if len(errs) > 0 {
			t.Fatalf("%+v: bursts failed: %v", tc, errs)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%+v: ReadBulk did not return the bytes WriteBulk wrote", tc)
		}
	}
}

func TestCopyServerToServer(t *testing.T) {
	sys := newSys(t)
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	src := growMapped(t, region, 2, 1<<20)
	dst := growMapped(t, region, 3, 1<<20)
	want := make([]byte, 8192)
	for i := range want {
		want[i] = byte(i*3 + 1)
	}
	if err := region.Write(src, want); err != nil {
		t.Fatal(err)
	}
	completed := false
	if err := region.Copy(dst, src, 8192, func(_ Time, err error) {
		if err != nil {
			t.Fatal(err)
		}
		completed = true
	}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !completed {
		t.Fatal("copy never completed")
	}
	got := make([]byte, 8192)
	if err := region.Read(dst, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("copied bytes wrong")
	}
	// Both endpoints are remote: the data moved donor-to-donor. The
	// client's node shows no read-response traffic for the payload.
	if owner, _ := region.Owner(src); owner == region.Node() {
		t.Fatal("test setup: source unexpectedly local")
	}
}

func TestAccessBatch(t *testing.T) {
	sys := newSys(t)
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	p := growMapped(t, region, 2, 1<<20)
	completions := 0
	reqs := make([]AccessRequest, 8)
	for i := range reqs {
		reqs[i] = AccessRequest{Pointer: p + Pointer(i*64), Done: func(Time) { completions++ }}
	}
	if err := region.AccessBatch(reqs); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if completions != 8 {
		t.Errorf("%d of 8 batch accesses completed", completions)
	}
	// A batch with an unmapped pointer reports which request failed.
	err = region.AccessBatch([]AccessRequest{
		{Now: sys.Now(), Pointer: p},
		{Now: sys.Now(), Pointer: 0xdead0000},
	})
	if err == nil || !strings.Contains(err.Error(), "batch access 1") {
		t.Errorf("batch error = %v", err)
	}
	sys.Run()
}

// Bulk metric families appear only in systems that issued bulk traffic,
// so non-bulk runs stay byte-identical.
func TestBulkMetricsGatedThroughFacade(t *testing.T) {
	quiet := newSys(t)
	qr, err := quiet.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	qp := growMapped(t, qr, 2, 1<<20)
	if err := qr.Access(AccessRequest{Pointer: qp}); err != nil {
		t.Fatal(err)
	}
	quiet.Run()
	if strings.Contains(quiet.Metrics().JSON(), "ncdsm_rmc_bulk") {
		t.Error("bulk families present without bulk traffic")
	}

	busy := newSys(t)
	br, err := busy.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	bp := growMapped(t, br, 2, 1<<20)
	if err := br.ReadBulk(bp, []Span{{Offset: 0, Bytes: 4096}}, nil); err != nil {
		t.Fatal(err)
	}
	busy.Run()
	if !strings.Contains(busy.Metrics().JSON(), "ncdsm_rmc_bulk_bursts_total") {
		t.Error("bulk families missing after bulk traffic")
	}
}

// TestBulkMixedLocalRemote: a span range crossing a local heap chunk
// into borrowed memory splits into one local controller run and one
// remote burst, reassembled in order.
func TestBulkMixedLocalRemote(t *testing.T) {
	sys := newSys(t)
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	// A 12 GB malloc spills: early bytes local, late bytes remote.
	ptr, err := region.Malloc(12 << 30)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := region.Owner(ptr)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := region.Owner(ptr + 11<<30)
	if err != nil {
		t.Fatal(err)
	}
	if lo != region.Node() || hi == region.Node() {
		t.Skipf("layout not mixed (owners %d, %d); nothing to test", lo, hi)
	}
	// Binary-search the local/remote boundary page.
	isRemote := func(off uint64) bool {
		o, err := region.Owner(ptr + Pointer(off))
		if err != nil {
			t.Fatal(err)
		}
		return o != region.Node()
	}
	loOff, hiOff := uint64(0), uint64(11<<30)
	for hiOff-loOff > 4096 {
		mid := (loOff + hiOff) / 2 &^ 4095
		if isRemote(mid) {
			hiOff = mid
		} else {
			loOff = mid
		}
	}
	base := ptr + Pointer(hiOff) - 2048 // 2 KiB local, then remote
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i*5 + 2)
	}
	if err := region.Write(base, want); err != nil {
		t.Fatal(err)
	}
	sink := make([]byte, 4096)
	if err := region.ReadBulk(base, []Span{{Offset: 0, Bytes: 4096}}, sink, func(_ Time, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !bytes.Equal(sink, want) {
		t.Error("mixed local/remote gather returned wrong bytes")
	}
}
