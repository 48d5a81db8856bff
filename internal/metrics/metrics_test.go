package metrics

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero counter must read 0")
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	c.Set(7)
	if got := c.Value(); got != 7 {
		t.Fatalf("after Set: %d, want 7", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("concurrent counter = %d, want 16000", got)
	}
}

func TestHighWater(t *testing.T) {
	var h HighWater
	if h.Value() != 0 {
		t.Fatal("zero high-water must read 0")
	}
	h.Observe(5)
	h.Observe(3)
	if got := h.Value(); got != 5 {
		t.Fatalf("high-water = %d, want 5", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(int64(i*1000 + j))
			}
		}()
	}
	wg.Wait()
	if got := h.Value(); got != 7999 {
		t.Fatalf("concurrent high-water = %d, want 7999", got)
	}
}

func TestSnapshotDiff(t *testing.T) {
	var s Set
	before := s.Snapshot()
	s.Invocations.Add(10)
	s.Syscalls.Add(3)
	s.TransferInvocations.Add(7)
	after := s.Snapshot()
	d := Diff(before, after)
	if d.Get("invocations") != 10 {
		t.Errorf("invocations diff = %d, want 10", d.Get("invocations"))
	}
	if d.Get("syscalls") != 3 {
		t.Errorf("syscalls diff = %d, want 3", d.Get("syscalls"))
	}
	if d.Get("transfer_invocations") != 7 {
		t.Errorf("transfer diff = %d, want 7", d.Get("transfer_invocations"))
	}
	if d.Get("replies") != 0 {
		t.Errorf("replies diff = %d, want 0", d.Get("replies"))
	}
	if (Snapshot{}).Get("replies") != 0 {
		t.Error("a zero Snapshot should read 0 for a real name")
	}
	defer func() {
		if recover() == nil {
			t.Error("Get of a name no meter carries should panic")
		}
	}()
	d.Get("nonexistent")
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Add(10)
	g.Dec()
	g.Sub(4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge after Set = %d, want -3", got)
	}
}

func TestSnapshotCoversEveryCounter(t *testing.T) {
	var s Set
	snap := s.Snapshot()
	want := []string{
		"invocations", "local_invocations", "cross_node_invocations",
		"replies", "process_switches", "bytes_moved", "wire_bytes",
		"activations", "checkpoints", "syscalls", "ejects_created",
		"transfer_invocations", "deliver_invocations", "items_moved",
		"shard_frames", "wire_frames_encoded", "wire_bytes_saved",
		"slab_retained", "slab_released", "slab_leaked",
		"fusion_groups", "fused_stages",
		"channels_live", "idle_channel_bytes", "channel_lookup_contention",
		"cap_cache_hits", "cap_cache_misses", "window_gate_stalls",
		"window_depth_hw", "merge_reorder_hw", "batch_size_hw",
		"exchange_rtt_samples", "exchange_rtt_p50_ns", "exchange_rtt_p99_ns", "exchange_rtt_p999_ns",
	}
	if len(snap.Values) != len(want) {
		t.Fatalf("snapshot has %d counters, want %d", len(snap.Values), len(want))
	}
	for _, name := range want {
		if _, ok := snap.Values[name]; !ok {
			t.Errorf("snapshot missing counter %q", name)
		}
	}
}

// TestSnapshotReadsItsOwnField gives every meter a distinct value
// through its own field — a striped one on a stripe other than 0 — and
// checks each name reads its field's value: a name bound to the wrong
// field, a reader of the wrong type or one that sums only stripe 0 fails.
// The derived meters read their identities, and the histogram its own
// samples.
func TestSnapshotReadsItsOwnField(t *testing.T) {
	var s Set
	want := make(map[string]int64)
	set := func(name string, add func(int64)) {
		v := int64(100 + len(want))
		add(v)
		want[name] = v
	}
	striped := func(name string, c *stripedCounter) {
		set(name, func(v int64) { c.AddAt(Stripe(len(want)%(stripes-1)+1), v) })
	}
	striped("invocations", &s.Invocations)
	striped("cross_node_invocations", &s.CrossNodeInvocations)
	striped("replies", &s.Replies)
	striped("bytes_moved", &s.BytesMoved)
	striped("transfer_invocations", &s.TransferInvocations)
	striped("deliver_invocations", &s.DeliverInvocations)
	striped("items_moved", &s.ItemsMoved)
	striped("wire_bytes_saved", &s.WireBytesSaved)
	striped("shard_frames", &s.ShardFrames)
	striped("cap_cache_hits", &s.CapabilityCacheHits)
	striped("cap_cache_misses", &s.CapabilityCacheMisses)
	striped("window_gate_stalls", &s.WindowGateStalls)
	striped("wire_bytes", &s.WireBytes)
	striped("wire_frames_encoded", &s.WireFramesEncoded)
	striped("slab_retained", &s.SlabRetained)
	striped("slab_released", &s.SlabReleased)
	set("activations", s.Activations.Add)
	set("checkpoints", s.Checkpoints.Add)
	set("syscalls", s.Syscalls.Add)
	set("ejects_created", s.EjectsCreated.Add)
	set("slab_leaked", s.SlabLeaked.Add)
	set("fusion_groups", s.FusionGroups.Add)
	set("fused_stages", s.FusedStages.Add)
	set("channel_lookup_contention", s.ChannelLookupContention.Add)
	set("channels_live", s.ChannelsLive.Add)
	set("idle_channel_bytes", s.IdleChannelBytes.Add)
	set("window_depth_hw", s.WindowDepthHighWater.Observe)
	set("merge_reorder_hw", s.MergeReorderHighWater.Observe)
	set("batch_size_hw", s.BatchSizeHighWater.Observe)
	if len(want) != 29 {
		t.Fatalf("set %d meters, want 29", len(want))
	}
	want["process_switches"] = want["invocations"] + want["replies"]
	want["local_invocations"] = want["invocations"] - want["cross_node_invocations"]
	// Three samples 1000, 2000 and 9 s (past the last bucket's bound):
	// the median's bucket is [1920, 2048), the tail's the last.
	for _, ns := range []int64{1000, 2000, 9e9} {
		s.ExchangeRTT.Record(ns)
	}
	want["exchange_rtt_samples"] = 3
	want["exchange_rtt_p50_ns"] = 1983
	want["exchange_rtt_p99_ns"] = (15<<28 + 1<<32 - 1) / 2
	want["exchange_rtt_p999_ns"] = want["exchange_rtt_p99_ns"]
	if got := s.Snapshot().Values; !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot = %v\nwant       %v", got, want)
	}
}

// The meter tables meterTable must refuse, one fault each.
type (
	untaggedMeter struct {
		A Counter `metric:"a"`
		B Gauge
	}
	taggedNonMeter struct {
		A Counter `metric:"a"`
		N int64   `metric:"n"`
	}
	nameLedger struct {
		A HighWater `metric:"a"`
	}
	reusedName struct {
		nameLedger
		B Counter `metric:"a"`
	}
	reusedHistName struct {
		A Histogram `metric:"a"`
		B Counter   `metric:"a_p99_ns"`
	}
	reusedDerivedName struct {
		A Counter `metric:"process_switches"`
	}
)

func TestMeterTableRejects(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[untaggedMeter](),
		reflect.TypeFor[taggedNonMeter](),
		reflect.TypeFor[reusedName](),
		reflect.TypeFor[reusedHistName](),
		reflect.TypeFor[reusedDerivedName](),
	} {
		if _, err := meterTable(typ); err == nil {
			t.Errorf("meterTable(%s) accepted it", typ.Name())
		}
	}
	if table, err := meterTable(reflect.TypeFor[nameLedger]()); err != nil || len(table) != 1 {
		t.Errorf("meterTable(nameLedger) = %v, %v; want one meter", table, err)
	}
}

func TestSnapshotStringOmitsZeros(t *testing.T) {
	var s Set
	s.Invocations.Add(2)
	s.BytesMoved.Add(100)
	str := s.Snapshot().String()
	if !strings.Contains(str, "invocations=2") {
		t.Errorf("String() = %q, missing invocations", str)
	}
	if !strings.Contains(str, "bytes_moved=100") {
		t.Errorf("String() = %q, missing bytes_moved", str)
	}
	if strings.Contains(str, "syscalls") {
		t.Errorf("String() = %q should omit zero counters", str)
	}
}

func TestDiffMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Diff of mismatched snapshots should panic")
		}
	}()
	Diff(Snapshot{Values: map[string]int64{"a": 1}}, Snapshot{Values: map[string]int64{"a": 1, "b": 2}})
}

// TestStripedCounterExact: G goroutines tick a striped counter by Inc
// and by Add(k) while readers take Value and Snapshot.  Every read is
// at most what had been added by the time it returned and no less than
// the reader's previous one; the final Value is the exact sum.
func TestStripedCounterExact(t *testing.T) {
	const writers, perWriter, k = 16, 20000, 7
	var (
		s      Set
		issued atomic.Int64 // ticks announced; runs ahead of the counters
		stop   = make(chan struct{})
		rd     sync.WaitGroup
	)
	reader := func(read func() (inc, add int64)) {
		defer rd.Done()
		var lastInc, lastAdd int64
		for {
			inc, add := read()
			bound := issued.Load()
			if inc < lastInc || add < lastAdd {
				t.Errorf("read went backwards: %d after %d, %d after %d", inc, lastInc, add, lastAdd)
				return
			}
			if inc > bound || add > bound*k {
				t.Errorf("read %d / %d with only %d ticks issued", inc, add, bound)
				return
			}
			lastInc, lastAdd = inc, add
			select {
			case <-stop:
				return
			default:
			}
		}
	}
	rd.Add(2)
	go reader(func() (int64, int64) { return s.Invocations.Value(), s.BytesMoved.Value() })
	go reader(func() (int64, int64) {
		snap := s.Snapshot()
		return snap.Get("invocations"), snap.Get("bytes_moved")
	})
	var wr sync.WaitGroup
	for range writers {
		wr.Add(1)
		go func() {
			defer wr.Done()
			for range perWriter {
				issued.Add(1)
				s.Invocations.Inc()
				s.BytesMoved.Add(k)
			}
		}()
	}
	wr.Wait()
	close(stop)
	rd.Wait()
	if got := s.Invocations.Value(); got != writers*perWriter {
		t.Errorf("Inc total = %d, want %d", got, writers*perWriter)
	}
	if got := s.BytesMoved.Value(); got != writers*perWriter*k {
		t.Errorf("Add total = %d, want %d", got, writers*perWriter*k)
	}
}

// TestSnapshotDiffIsTheBurst: whatever stripes a burst lands on, the
// Diff of the snapshots around it is the burst, on every striped counter
// and on none of the others.
func TestSnapshotDiffIsTheBurst(t *testing.T) {
	var s Set
	s.ItemsMoved.Add(1000) // history the Diff must cancel
	before := s.Snapshot()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := Here()
			for range 100 {
				s.Invocations.AddAt(st, 1)
				s.Replies.AddAt(st, 1)
				s.ItemsMoved.Add(int64(g))
				s.SlabRetained.Inc()
				s.WireBytes.Add(64)
				s.WindowGateStalls.Inc() // the last word of the port ledger's line
			}
		}()
	}
	wg.Wait()
	d := Diff(before, s.Snapshot())
	want := map[string]int64{
		"invocations": 800, "replies": 800, "process_switches": 1600, "local_invocations": 800,
		"items_moved": 100 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7), "slab_retained": 800, "wire_bytes": 800 * 64,
		"window_gate_stalls": 800,
	}
	for name, got := range d.Values {
		if got != want[name] {
			t.Errorf("diff[%s] = %d, want %d", name, got, want[name])
		}
	}
	if n := testing.AllocsPerRun(100, s.WindowGateStalls.Inc); n != 0 {
		t.Errorf("a striped tick allocates %v times, want 0", n)
	}
}

func TestStripedCounterSet(t *testing.T) {
	var s Set
	for st := Stripe(0); st < stripes; st++ {
		s.Replies.AddAt(st, int64(st)+1)
	}
	if got, want := s.Replies.Value(), int64(stripes*(stripes+1)/2); got != want {
		t.Fatalf("sum over stripes = %d, want %d", got, want)
	}
	s.Replies.Set(7)
	if got := s.Replies.Value(); got != 7 {
		t.Fatalf("after Set: %d, want 7", got)
	}
	s.Replies.Inc()
	if got := s.Replies.Value(); got != 8 {
		t.Fatalf("after Set and Inc: %d, want 8", got)
	}
	if s.CrossNodeInvocations.Value() != 0 || s.BytesMoved.Value() != 0 {
		t.Fatal("Set reached a neighbouring counter")
	}
}

// TestSetLayout pins what the striping rests on: each ledger is 16
// lines of 64 bytes starting at a 64-byte offset, every stripedCounter
// in the Set lies in the first line of one (it addresses the other 15
// relative to itself), and the whole Set stays within 4 KiB of the 240
// bytes its thirty single-word counters took, plus 2 KiB for the
// exchange histogram.
func TestSetLayout(t *testing.T) {
	const unstriped, budget = 30 * 8, 4096 + 2048
	if size := unsafe.Sizeof(Set{}); size > unstriped+budget {
		t.Errorf("Set is %d bytes, budget %d", size, unstriped+budget)
	}
	var s Set
	for _, l := range []struct {
		name               string
		offset, size, rest uintptr
	}{
		{"kernel", unsafe.Offsetof(s.kernelLedger), unsafe.Sizeof(s.kernelLedger), unsafe.Offsetof(s.kernelLedger.rest)},
		{"port", unsafe.Offsetof(s.portLedger), unsafe.Sizeof(s.portLedger), unsafe.Offsetof(s.portLedger.rest)},
		{"wire", unsafe.Offsetof(s.wireLedger), unsafe.Sizeof(s.wireLedger), unsafe.Offsetof(s.wireLedger.rest)},
	} {
		if l.offset%lineBytes != 0 || l.rest != lineBytes || l.size != stripes*lineBytes {
			t.Errorf("%s ledger: at offset %d, first line %d bytes, %d bytes in all; want a multiple of %d, %d, %d",
				l.name, l.offset, l.rest, l.size, lineBytes, lineBytes, stripes*lineBytes)
		}
	}

	striped := reflect.TypeOf(stripedCounter{})
	found := 0
	var walk func(typ reflect.Type, inFirstLine bool, path string)
	walk = func(typ reflect.Type, inFirstLine bool, path string) {
		switch typ.Kind() {
		case reflect.Array:
			walk(typ.Elem(), false, path+"[]")
		case reflect.Struct:
			if typ == striped {
				found++
				if !inFirstLine {
					t.Errorf("%s: a stripedCounter outside the first line of a ledger", path)
				}
				return
			}
			for i := range typ.NumField() {
				f := typ.Field(i)
				// A ledger's first line is its fields before rest.
				first := strings.HasSuffix(typ.Name(), "Ledger") && f.Offset < lineBytes
				walk(f.Type, first, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(&s).Elem(), false, "Set")
	if found != 16 {
		t.Errorf("%d striped counters, want 16", found)
	}
}

func TestNextID(t *testing.T) {
	var s Set
	seen := make(map[uint64]bool)
	for round := range 3 {
		for st := Stripe(0); st < stripes; st++ {
			id := s.NextID(st)
			if id == 0 || seen[id] {
				t.Fatalf("round %d stripe %d: id %d is zero or repeated", round, st, id)
			}
			if Stripe(id%stripes) != st {
				t.Fatalf("id %d drawn on stripe %d carries stripe %d", id, st, id%stripes)
			}
			seen[id] = true
		}
	}
	if s.NextID(stripes+3) != 4*stripes+3 { // out of range wraps, like every stripe argument
		t.Fatal("stripe argument not reduced")
	}
}

// TestDrawIDSharesTheSequence: ids drawn from blocks and by NextID on
// one stripe come from one sequence, so none is 0 or repeats.
func TestDrawIDSharesTheSequence(t *testing.T) {
	var s Set
	var a, b IDBlock
	seen := make(map[uint64]bool)
	for i := range 3 * idBlock {
		for _, id := range []uint64{s.DrawID(&a, 5), s.NextID(5), s.DrawID(&b, 5+stripes)} {
			if id == 0 || seen[id] || id%stripes != 5 {
				t.Fatalf("draw %d: id %d is zero, repeated or off stripe 5", i, id)
			}
			seen[id] = true
		}
	}
}

// TestHistogramQuantiles checks each quantile a Snapshot reports
// against the sorted samples: within one bucket of the sample at its
// rank.  A Diff keeps the later Snapshot's readings.
func TestHistogramQuantiles(t *testing.T) {
	var s Set
	rng := rand.New(rand.NewPCG(1, 2))
	var xs []int64
	check := func(sn Snapshot) {
		t.Helper()
		if got := sn.Get("exchange_rtt_samples"); got != int64(len(xs)) {
			t.Errorf("samples = %d, want %d", got, len(xs))
		}
		for _, hq := range []struct {
			suffix string
			q      float64
		}{{"_p50_ns", 0.50}, {"_p99_ns", 0.99}, {"_p999_ns", 0.999}} {
			got := sn.Get("exchange_rtt" + hq.suffix)
			if len(xs) == 0 {
				if got != 0 {
					t.Errorf("%s = %d with no samples", hq.suffix, got)
				}
				continue
			}
			ref := xs[int(math.Ceil(hq.q*float64(len(xs))))-1]
			b := histBucket(ref)
			if width := histLower(b+1) - histLower(b); got < ref-width || got > ref+width {
				t.Errorf("%s = %d, sample %d, bucket width %d", hq.suffix, got, ref, width)
			}
		}
	}
	check(s.Snapshot())
	for _, n := range []int{5000, 20000} {
		before := s.Snapshot()
		for range n {
			x := int64(math.Exp(rng.Float64() * 20)) // 1 ns to 0.5 s
			s.ExchangeRTT.Record(x)
			xs = append(xs, x)
		}
		slices.Sort(xs)
		check(s.Snapshot())
		check(Diff(before, s.Snapshot()))
	}
	for b := range histBuckets { // every bucket holds its own bounds
		if histBucket(histLower(b)) != b || histBucket(histLower(b+1)-1) != b {
			t.Errorf("bucket %d does not hold [%d, %d)", b, histLower(b), histLower(b+1))
		}
	}
}

// TestHistogramRecordAllocs pins the record path at zero allocations.
func TestHistogramRecordAllocs(t *testing.T) {
	var h Histogram
	ns := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(ns); ns *= 3 }); n != 0 {
		t.Errorf("Record allocates %v times, want 0", n)
	}
}

// TestHereSpreadsGoroutines guards the hint against collapsing to a
// constant, which would be correct and silently as slow as one cell.
func TestHereSpreadsGoroutines(t *testing.T) {
	const goroutines = 64
	var (
		mu      sync.Mutex
		stripes = make(map[Stripe]bool)
		wg      sync.WaitGroup
		hold    = make(chan struct{})
	)
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := Here()
			mu.Lock()
			stripes[st] = true
			mu.Unlock()
			<-hold // keep every stack alive, so that none is reused
		}()
	}
	for {
		mu.Lock()
		n := len(stripes)
		mu.Unlock()
		if n >= 4 {
			break
		}
		runtime.Gosched()
	}
	close(hold)
	wg.Wait()
}

// BenchmarkCounterParallel is the contention figure: GOMAXPROCS
// goroutines ticking one counter of a Set, alone and with a reader
// summing it once per thousand ticks.  `cold` is a single-word Counter
// under the same load, for the difference.
func BenchmarkCounterParallel(b *testing.B) {
	b.Run("inc", func(b *testing.B) {
		var s Set
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.Invocations.Inc()
			}
		})
	})
	b.Run("inc+value", func(b *testing.B) {
		var s Set
		var sink atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for i := 1; pb.Next(); i++ {
				s.Invocations.Inc()
				if i%1000 == 0 {
					sink.Store(s.Invocations.Value())
				}
			}
		})
	})
	b.Run("cold/inc", func(b *testing.B) {
		var s Set
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.Activations.Inc()
			}
		})
	})
}
