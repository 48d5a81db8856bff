package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// None of these tests asserts a timing: they check the benchmark's own
// arithmetic and, through -quick, that every workload still runs and
// its oracle still passes.

func TestPercentileMedianSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(append([]float64(nil), xs...), c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	s := summarize([]float64{90, 100, 120}, "us")
	if s.Median != 100 || s.Min != 90 || s.Max != 120 || s.N != 3 || s.Unit != "us" {
		t.Errorf("summarize = %+v", s)
	}
	if math.Abs(s.Mean-310.0/3) > 1e-9 {
		t.Errorf("mean = %v, want 310/3", s.Mean)
	}
	// The harness line carries medians, and the heap's mean.
	if got := harnessValue(metricDef{name: "items_per_s"}, s); got != s.Median {
		t.Errorf("harness value of a timing metric = %v, want the median", got)
	}
	if got := harnessValue(metricDef{name: "live_heap_mb"}, s); got != s.Mean {
		t.Errorf("harness value of live_heap_mb = %v, want the mean", got)
	}
	if got := s.spread(); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("spread = %v, want (120-90)/100", got)
	}
	if got := (summary{}).spread(); got != 0 {
		t.Errorf("spread with a zero median = %v, want 0", got)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	// Every value lands in a bucket whose bounds hold it, and buckets
	// are at most 1/8 wide relative to their lower bound.
	for _, ns := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 1000, 1 << 20, 123456789, 1 << 40} {
		b := histBucket(ns)
		lo, hi := histLower(b), histLower(b+1)
		if ns < lo || ns >= hi {
			t.Errorf("%d ns landed in bucket %d = [%d, %d)", ns, b, lo, hi)
		}
		if lo >= histSub && float64(hi-lo)/float64(lo) > 1.0/histSub+1e-9 {
			t.Errorf("bucket %d = [%d, %d) is wider than 1/%d", b, lo, hi, histSub)
		}
	}
	var h, other histogram
	for i := int64(1); i <= 1000; i++ {
		if i%2 == 0 {
			h.observe(i * 1000)
		} else {
			other.observe(i * 1000)
		}
	}
	h.merge(&other)
	if h.n != 1000 || h.sum != 1000*1001/2*1000 {
		t.Fatalf("merged histogram holds n=%d sum=%d", h.n, h.sum)
	}
	for _, p := range []float64{0.5, 0.99} {
		want := p * 1000 * 1000
		if got := h.quantile(p); math.Abs(got-want)/want > 0.09 {
			t.Errorf("quantile(%v) = %v, want %v within 9%%", p, got, want)
		}
	}
}

// fakeClock advances by step on every read; jumps[n] adds a stall
// before the n-th read.
type fakeClock struct {
	t     int64
	step  int64
	reads int
	jumps map[int]int64
}

func (c *fakeClock) now() int64 {
	c.reads++
	c.t += c.step + c.jumps[c.reads]
	return c.t
}

func TestPacerStampsDueTimesAndCountsLateness(t *testing.T) {
	const items = 10
	clk := &fakeClock{step: 1000}    // 1 µs a read
	p := newPacer(clk, 10000, items) // one item every 100 µs
	p.begin()
	for i := 0; i < items; i++ {
		if i == 5 {
			// A 1 ms stall: items 5 and the nine after it are released
			// late, but stay due on the schedule.
			clk.jumps = map[int]int64{clk.reads + 1: 1_000_000}
		}
		p.wait(i)
	}
	for i := 0; i < items; i++ {
		if want := p.start + int64(i)*100_000; p.due[i] != want {
			t.Errorf("item %d due at %d, want %d: the schedule must not slip", i, p.due[i], want)
		}
	}
	for i := 0; i < 5; i++ {
		if p.late[i] < 0 || p.late[i] > 1000 {
			t.Errorf("item %d released %d ns late on an unstalled clock, want at most one read", i, p.late[i])
		}
	}
	// The stall outlasts nine schedule slots: item 5 waits all of it,
	// item 9 what is left of it.
	if p.late[5] < 900_000 || p.late[5] > 1_000_000 {
		t.Errorf("item 5 released %d ns late, want about the 1 ms stall", p.late[5])
	}
	if p.late[9] < 500_000 || p.late[9] > p.late[5] {
		t.Errorf("item 9 released %d ns late, want the stall's remainder (under item 5's %d)", p.late[9], p.late[5])
	}
	p50, p99 := p.lateness(items)
	if p50 < 0 || p99 < p50 || p99 < 800 {
		t.Errorf("lateness p50 %v us p99 %v us", p50, p99)
	}
}

func TestPacerInvalidRunRule(t *testing.T) {
	run := func(step int64) *pacer {
		p := newPacer(&fakeClock{step: step}, 1000, 50)
		p.begin()
		for i := 0; i < 50; i++ {
			p.wait(i)
		}
		return p
	}
	if p := run(1000); !p.valid(50) {
		p50, _ := p.lateness(50)
		t.Errorf("a generator %v us late at the median is valid (limit %d us)", p50, maxLateP50Us)
	}
	// A clock that only moves in 70 µs steps releases every item tens
	// of µs late: the repetition did not offer the schedule it claims.
	if p := run(70_000); p.valid(50) {
		p50, _ := p.lateness(50)
		t.Errorf("a generator %v us late at the median must be invalid (limit %d us)", p50, maxLateP50Us)
	}
}

func TestSlicerCutsByCountAndReportsTheFastDecile(t *testing.T) {
	s := newSlicer(4, 10)
	s.start()
	for i := 0; i < 10; i++ {
		s.tick()
	}
	if len(s.wall) != 2 || len(s.cpu) != 2 {
		t.Fatalf("10 items in slices of 4 closed %d slices, want 2 (the last 2 items are in none)", len(s.wall))
	}

	// Eleven slices of 1000 items: one in which the program ran half as
	// fast again, two at the host's own speed, eight while it was slowed
	// down.  The fast decile reads the host's own speed.
	ms := time.Millisecond
	s = &slicer{every: 1000}
	for i, w := range []time.Duration{15, 16, 10, 17, 15, 7, 16, 10, 15, 17, 16} {
		s.wall = append(s.wall, w*ms)
		s.cpu = append(s.cpu, w*ms+time.Duration(i%2+2)*ms)
	}
	if got := s.rate(); math.Abs(got-100_000) > 1e-6 {
		t.Errorf("rate = %v items/s, want the 100000 of the 10 ms slices", got)
	}
	if got := s.cpuUs(nil); math.Abs(got-12) > 1e-9 {
		t.Errorf("cpuUs = %v, want the 12 of a 10 ms slice", got)
	}
	// The paced generator's own CPU comes off slice by slice.
	if got := s.cpuUs(append([]time.Duration(nil), s.wall...)); math.Abs(got-2) > 1e-9 {
		t.Errorf("cpuUs less the generator's = %v, want 2", got)
	}

	var r repResult
	r.items, r.m.elapsed, r.m.cpu = 5000, 68*ms, 75*ms
	if math.Abs(r.rate()-5000/0.068) > 1e-6 || r.cpuUs() != 15 {
		t.Errorf("without slices rate %v and cpuUs %v, want the whole run's", r.rate(), r.cpuUs())
	}
	r.sliced(s, nil)
	if r.rate() != s.rate() || r.cpuUs() != 12 {
		t.Errorf("with slices rate %v and cpuUs %v, want the slices'", r.rate(), r.cpuUs())
	}
}

func TestLatencyOfTakesP50BySlice(t *testing.T) {
	// Two slices of four samples with medians 12.5 and 2.5, and a tail.
	us := []float64{11, 12, 13, 14, 1, 2, 3, 4, 900}
	l := latencyOf(append([]float64(nil), us...), 4)
	if want := 2.5 + fastShare*10; math.Abs(l.p50-want) > 1e-9 || l.n != 9 {
		t.Errorf("p50 = %v over %d samples, want %v, a tenth of the way from 2.5 to 12.5, over 9", l.p50, l.n, want)
	}
	if l.p999 < 800 {
		t.Errorf("p999 = %v: the tail is taken over every sample, the odd one too", l.p999)
	}
	if l := latencyOf(append([]float64(nil), us...), 16); l.p50 != 11 {
		t.Errorf("p50 with no whole slice = %v, want the plain median 11", l.p50)
	}
}

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one inside", []span{{Start: 120, End: 150}}, 70},
		{"two disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested count once", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"overhang is clipped", []span{{Start: 50, End: 120}, {Start: 180, End: 300}}, 60},
		{"outside is ignored", []span{{Start: 0, End: 100}, {Start: 200, End: 250}}, 100},
		{"covering", []span{{Start: 0, End: 300}}, 0},
		{"unsorted", []span{{Start: 150, End: 170}, {Start: 110, End: 120}}, 70},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// ledgerFixture is two actors that each lived 1 ms and spent 0.8 ms of
// it in calls, over 1000 items in 1.05 ms of wall time (start-up skew).
func ledgerFixture(nest nesting) *tracer {
	tr := newTracer()
	tr.nest = nest
	for _, name := range []string{"src", "sink"} {
		a := tr.newActor(name)
		a.root = span{Start: 0, End: 1_000_000}
		a.callsNs = 800_000
	}
	tr.invokes.Store(3000)
	tr.invokeNs.Store(600_000)
	tr.placedNs.Store(600_000)
	tr.insideLinkNs.Store(100_000)
	tr.outsideLinkNs.Store(50_000)
	return tr
}

func TestLedgerRowsByNesting(t *testing.T) {
	const items = 1000
	wall := 1050 * time.Microsecond
	skew := 1 - 2.0/2.1
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	for _, c := range []struct {
		name                     string
		nest                     nesting
		calls                    int64 // per actor
		body, port, invoke, link float64
	}{
		{"in a port call", inPort, 800_000, 0.4, 0.95, 0.5, 0.15},
		// The pump invokes directly: its invocations come out of the body.
		{"in the body", inBody, 100_000, 1.15, 0.2, 0.5, 0.15},
		// Peer.Invoke is a transport call: its self time is the link row.
		{"in the bridge", inBridge, 800_000, 0.4, 0, 0.6, 1.0},
		// Invocations ran beside the actors: reported, left out of the sum.
		{"overlapped", overlapped, 800_000, 0.4, 1.6, 0.5, 0.15},
	} {
		tr := ledgerFixture(c.nest)
		if c.nest == inBridge {
			tr.insideLinkNs.Store(0)
			tr.outsideLinkNs.Store(0)
		}
		tr.all[0].callsNs, tr.all[1].callsNs = c.calls, c.calls
		l := tr.ledgerOf(items, wall)
		if !near(l.BodyUs, c.body) || !near(l.PortUs, c.port) || !near(l.InvokeUs, c.invoke) || !near(l.LinkUs, c.link) {
			t.Errorf("%s: rows %+v, want body %v port %v invoke %v link %v", c.name, l, c.body, c.port, c.invoke, c.link)
		}
		if !near(l.ResidualShare, skew) || l.UnplacedUs != 0 {
			t.Errorf("%s: residual %v (unplaced %v), want only the skew %v", c.name, l.ResidualShare, l.UnplacedUs, skew)
		}
	}
}

// The residual is not an identity: invocation time the hook could not
// find under an actor's call leaves the invoke row and is in no other.
func TestLedgerResidualHoldsUnplacedInvocations(t *testing.T) {
	tr := ledgerFixture(inPort)
	tr.placedNs.Store(400_000) // a third of the invoke time had no call open
	l := tr.ledgerOf(1000, 1050*time.Microsecond)
	if math.Abs(l.UnplacedUs-0.2) > 1e-9 || math.Abs(l.InvokeUs-0.3) > 1e-9 {
		t.Errorf("unplaced %v us/item, invoke row %v, want 0.2 and 0.3", l.UnplacedUs, l.InvokeUs)
	}
	if want := 1 - 1.8/2.1; math.Abs(l.ResidualShare-want) > 1e-9 {
		t.Errorf("residual share %v, want skew plus the unplaced 0.2 us = %v", l.ResidualShare, want)
	}
}

func TestTracedChecksCountLostAndDoubleCountedSpans(t *testing.T) {
	closeWith := func(mutate func(*tracer)) repResult {
		tr := ledgerFixture(inPort)
		mutate(tr)
		var r repResult
		r.m.elapsed = 1050 * time.Microsecond
		r.traced(tr, 1000, 3000)
		return r
	}
	if r := closeWith(func(*tracer) {}); r.failed != 0 || r.attempted != 2 {
		t.Errorf("a consistent trace failed %d of %d checks: %v", r.failed, r.attempted, r.why)
	}
	if r := closeWith(func(tr *tracer) { tr.invokes.Store(2999) }); r.failed != 1 {
		t.Errorf("a lost invocation span failed %d checks, want 1", r.failed)
	}
	// Invocations counted twice outgrow the calls they are taken out of.
	if r := closeWith(func(tr *tracer) { tr.invokeNs.Store(1_700_000); tr.placedNs.Store(1_700_000) }); r.failed != 1 {
		t.Errorf("a negative port row failed %d checks, want 1: %+v", r.failed, r.ledger)
	}
}

func TestOracleCatchesLossReorderAndCorruption(t *testing.T) {
	g := newGenerator(7, 32)
	feed := func(mutate func(seq int, item []byte) [][]byte) (int, []string) {
		var o oracle
		for seq := 0; seq < 100; seq++ {
			item := append([]byte(nil), g.item(uint64(seq))...)
			for _, it := range mutate(seq, item) {
				o.observe(it)
			}
		}
		return o.verify(g, 100)
	}
	if failed, why := feed(func(_ int, it []byte) [][]byte { return [][]byte{it} }); failed != 0 {
		t.Errorf("a faithful stream failed %d checks: %v", failed, why)
	}
	if failed, _ := feed(func(seq int, it []byte) [][]byte {
		if seq == 40 {
			return nil
		}
		return [][]byte{it}
	}); failed == 0 {
		t.Error("a lost item went unnoticed")
	}
	if failed, _ := feed(func(seq int, it []byte) [][]byte {
		if seq == 99 {
			it[20] ^= 1
		}
		return [][]byte{it}
	}); failed != 1 {
		t.Errorf("one flipped payload bit must fail exactly the checksum, failed %d", failed)
	}
	var held []byte
	if failed, _ := feed(func(seq int, it []byte) [][]byte {
		switch seq {
		case 10:
			held = it
			return nil
		case 11:
			return [][]byte{it, held}
		}
		return [][]byte{it}
	}); failed < 2 {
		t.Errorf("two swapped items must fail the order check twice, failed %d", failed)
	}
	// The same seed gives the same inputs; another seed, others.
	if !bytes.Equal(newGenerator(7, 32).item(5), g.item(5)) || bytes.Equal(newGenerator(8, 32).item(5), g.item(5)) {
		t.Error("inputs must be a function of the seed")
	}
}

func TestVerdicts(t *testing.T) {
	higher := metricDef{name: "items_per_s", better: "higher", bound: 0.10}
	lower := metricDef{name: "cpu_us_per_item", better: "lower", bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Min: m * 0.99, Max: m * 1.01, N: 3} }
	wide := func(m float64) summary { return summary{Median: m, Min: m * 0.85, Max: m * 1.15, N: 3} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b summary
		want string
	}{
		{"faster", higher, tight(100), tight(120), verdictBetter},
		{"slower", higher, tight(100), tight(85), verdictWorse},
		{"within", higher, tight(100), tight(95), verdictWithin},
		{"cheaper", lower, tight(10), tight(8), verdictBetter},
		{"dearer", lower, tight(10), tight(11.5), verdictWorse},
		{"noisy and overlapping", higher, wide(100), wide(90), verdictUnresolved},
		{"noisy but every run apart", higher, wide(100), wide(50), verdictWorse},
		{"no base", higher, summary{}, tight(5), verdictUnresolved},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, ratio := verdict(higher, tight(100), tight(120)); math.Abs(ratio-1.2) > 1e-9 {
		t.Errorf("ratio %v, want new/base = 1.2", ratio)
	}
}

// syntheticResult is a result file in which every workload reads the
// same on every metric.
func syntheticResult(t *testing.T, dir, name string, itemsPerSec float64, failed int) string {
	t.Helper()
	f := newResultFile(1)
	for _, w := range workloads {
		o := outcome{metrics: make(map[string]summary), attempted: 1000, failed: failed}
		for _, d := range endToEnd {
			v := 10.0
			if d.name == "items_per_s" {
				v = itemsPerSec
			}
			o.metrics[d.name] = summary{Median: v, Min: v * 0.99, Max: v * 1.01, N: 3, Unit: d.unit}
		}
		f.add(w.name, o)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// rowsWith counts -compare's rows that end in the given verdict.
func rowsWith(out, v string) int {
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, "  "+v) {
			n++
		}
	}
	return n
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	base := syntheticResult(t, dir, "base.json", 1000, 0)
	same := syntheticResult(t, dir, "same.json", 1010, 0)
	slow := syntheticResult(t, dir, "slow.json", 700, 0)
	broken := syntheticResult(t, dir, "broken.json", 1000, 1)

	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, same); err != nil || worse {
		t.Fatalf("the same commit twice: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if rowsWith(out.String(), verdictWithin) == 0 || rowsWith(out.String(), verdictWorse)+rowsWith(out.String(), verdictBetter)+rowsWith(out.String(), verdictUnresolved) != 0 {
		t.Errorf("the same commit twice must read within bound everywhere:\n%s", out.String())
	}
	// Closed-loop latency is printed by the suite but not judged.
	if rows := strings.Count(out.String(), "item_latency_p50_us"); rows != 2 {
		t.Errorf("%d latency rows, want pull-uds-paced and bridge-echo, which gate latency", rows)
	}
	if !strings.Contains(out.String(), "of base 1000") {
		t.Errorf("every ratio is printed with its base:\n%s", out.String())
	}

	out.Reset()
	if worse, err := compareFiles(&out, base, slow); err != nil || !worse {
		t.Fatalf("30%% fewer items/s: worse=%v err=%v", worse, err)
	}
	if got := rowsWith(out.String(), verdictWorse); got != len(workloads) {
		t.Errorf("%d rows worse, want items_per_s on each of %d workloads:\n%s", got, len(workloads), out.String())
	}

	out.Reset()
	if worse, err := compareFiles(&out, base, broken); err != nil || !worse {
		t.Fatalf("one failed operation has an absolute bound of 0: worse=%v err=%v", worse, err)
	}
	if _, err := compareFiles(&out, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file must be an error")
	}
}

func TestResultFileHeaderAndNumbering(t *testing.T) {
	dir := t.TempDir()
	f := newResultFile(42)
	f.Commit = "abc1234"
	o := outcome{metrics: map[string]summary{"items_per_s": summarize([]float64{1, 2, 3}, "items/s")}, attempted: 10}
	f.add("pull-local-b1", o)
	first, err := f.write(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(first) != "result-abc1234-1.json" || filepath.Base(second) != "result-abc1234-2.json" {
		t.Errorf("result files %s, %s", first, second)
	}
	back, err := readResultFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if back.Host == "" || back.NProc < 1 || back.GOMAXPROCS < 1 || back.GoVersion == "" || back.Seed != 42 || back.Repetitions != suiteReps {
		t.Errorf("header %+v", back)
	}
	if m := back.Workloads["pull-local-b1"].Metrics["items_per_s"]; m.Median != 2 || m.Min != 1 || m.Max != 3 || m.N != 3 {
		t.Errorf("metric came back as %+v", m)
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json to the program: the
// harness reads names, units and bounds from the one and values from
// the other.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (bounds && g.Bound != d.bound) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

// TestQuickSmoke runs every workload at 1/100 scale, and the
// discipline × shards × fusion digest grid, through the oracle.
func TestQuickSmoke(t *testing.T) {
	var out bytes.Buffer
	if failed := runQuick(&out, 1); failed != 0 {
		t.Fatalf("-quick: %d failures\n%s", failed, out.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.name) {
			t.Errorf("-quick did not run %s", w.name)
		}
	}
}

// TestTracedPassFillsEveryMetric runs the per-layer half on the
// smallest workload: every metric BENCHMARK.json names must come back,
// the ledger must add up, and the trace file must be readable.
func TestTracedPassFillsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the isolated figures take a few seconds")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	w, _ := workloadByName("pull-uds-paced")
	layers, o, err := tracedPass(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", o.failed, o.attempted, o.why)
	}
	// A name perLayerOf fills but the table does not list would be
	// reported as 0 under the listed name.
	listed := make(map[string]bool)
	for _, d := range perLayer {
		listed[d.name] = true
	}
	for name := range layers {
		if !listed[name] {
			t.Errorf("per-layer metric %s is filled in but not in the perLayer table", name)
		}
	}
	for _, name := range []string{"kernel.invoke_local_ns", "transput.transfer_hop_ns", "wire.decode_ns_per_frame",
		"transport.transmit_unix_ns", "transport.bridge_invoke_ns", "stripemap.load_hit_ns", "wire.bytes_per_item",
		"transport.link_transmit_p50_us", "transput.stage.sink.wait_in_share", "driver.item_latency_p99_us"} {
		if layers[name] <= 0 {
			t.Errorf("per-layer metric %s = %v on a wire workload, want > 0", name, layers[name])
		}
	}
	if got := layers["transput.data_inv_per_item"]; got < 3 || got > 3.01 {
		t.Errorf("data invocations per item %v, want n+1 = 3 at batch 1", got)
	}
	data, err := os.ReadFile(filepath.Join(outDir, "trace-pull-uds-paced.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Spans) > maxKeptSpans {
		t.Errorf("%d spans kept, want 1..%d", len(tf.Spans), maxKeptSpans)
	}
	l := tf.Ledger
	if l.UnplacedUs != 0 {
		t.Errorf("%v us/item of invocations found under no open port call at Window=1", l.UnplacedUs)
	}
	base := float64(l.Actors) * l.WallUsPerItem
	if sum := l.BodyUs + l.PortUs + l.InvokeUs + l.LinkUs + l.ResidualShare*base; math.Abs(sum-base) > 1e-6*base {
		t.Errorf("ledger rows + residual = %v us/item, base %v", sum, base)
	}
}
