// Package metrics provides the counters with which the reproduction
// meters the quantities the paper reasons about: invocations (the
// paper's unit of communication cost), process switches, bytes moved,
// and — for the Unix baseline of Figure 1 — system calls.
//
// Metering must not distort the throughput benchmarks that compare the
// transput disciplines, and what distorts them is not the atomic add
// but the cache line under it: once a same-node invocation costs no
// goroutine hand-off, a line that every core writes on every invocation
// is the dearest thing on the path (DESIGN §6).  So the counters come
// in two kinds:
//
//   - The counters that tick per invocation or per item are striped.
//     They are grouped by who ticks them together — the kernel's
//     invocation path, the ports, the wire — and each group is a ledger
//     of 16 cache lines, one per stripe, a counter being the same word
//     of every line.  An increment takes the calling goroutine's stripe
//     (Here) and does one atomic add on a line no other running
//     goroutine is likely to be writing; a layer that ticks several
//     counters of a group takes the stripe once (AddAt) and touches one
//     line.  Value and Snapshot sum the stripes.  Nothing is sampled or
//     dropped: a striped counter is exact.
//   - Gauges, high-water marks and the counters that tick per Eject,
//     per checkpoint or per build (Counter) are single atomic words.
//     Nothing contends for them, and a gauge or a maximum has no
//     per-stripe meaning.
//
// Meters that are identities of others have no field: Snapshot derives them.
//
// A Snapshot captures every counter at an instant; Diff subtracts two
// snapshots, which is how the benchmark harness attributes costs to a
// single pipeline run.  A meter's snapshot name is the metric tag on
// its field of Set (`metric:"invocations"`): the package will not load
// if a meter lacks a tag or two share one, and Snapshot.Get panics on a
// name no meter carries.
package metrics

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Counter is a monotonically increasing atomic counter: one word, for
// the events too rare to contend (see the package comment).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Set forces the counter to n.  Only tests use this.
func (c *Counter) Set(n int64) { c.v.Store(n) }

const (
	// stripes is the number of lines in a ledger.  16 keeps two of a
	// pipeline's half-dozen stage goroutines off the same line most of
	// the time at 1 KiB a ledger; the Set's size is pinned by
	// TestSetLayout.
	stripeBits = 4
	stripes    = 1 << stripeBits
	// lineBytes is the cache-line size the ledgers are laid out for.
	lineBytes = 64
)

// Stripe names one line of every ledger.  Every value is valid: a
// stripe argument is taken modulo the stripe count.
type Stripe uint8

// Here returns the calling goroutine's stripe: a hash of where its
// stack is, in 4 KiB units.  A goroutine deep enough to be invoking has
// grown past its 2 KiB first stack, so two of them seldom share a unit,
// and one keeps its stripe from call to call unless its stack moves or
// its depth crosses a unit — affinity, not identity, which is all a
// stripe needs: any stripe is correct, an uncontended one is fast.  (At
// 2 KiB units a stage goroutine's frames straddled several stripes and
// pull-local-b1 lost a fifth of the gain; 8 and 16 KiB measured no
// better than 4.)  The multiplier is 2⁶⁴/φ: stacks carved side by side
// from one span land on well-separated stripes.
func Here() Stripe {
	var mark byte
	at := uint64(uintptr(unsafe.Pointer(&mark))) >> 12
	return Stripe(at * 0x9E3779B97F4A7C15 >> (64 - stripeBits))
}

// stripeWord returns stripe st's copy of w, a word in the first line of
// a ledger: the same word, st lines further on.
func stripeWord(w *atomic.Int64, st Stripe) *atomic.Int64 {
	return (*atomic.Int64)(unsafe.Add(unsafe.Pointer(w), uintptr(st%stripes)*lineBytes))
}

// stripedCounter is a monotonically increasing counter spread over the
// stripes of a ledger: its value is the sum of one word in each line.
// It finds the other stripes relative to itself, so it exists only as a
// field of a ledger's first line (TestSetLayout checks every one), which
// is why the type is not exported: a stripedCounter declared anywhere
// else would write past itself.
type stripedCounter struct {
	v atomic.Int64
}

func (c *stripedCounter) cell(st Stripe) *atomic.Int64 { return stripeWord(&c.v, st) }

// Add increments the counter by n on the caller's stripe.
func (c *stripedCounter) Add(n int64) { c.cell(Here()).Add(n) }

// Inc increments the counter by one on the caller's stripe.
func (c *stripedCounter) Inc() { c.cell(Here()).Add(1) }

// AddAt increments the counter by n on the given stripe.  A path that
// ticks several counters of one ledger calls Here once and AddAt for
// each, and so writes a single line.
func (c *stripedCounter) AddAt(st Stripe, n int64) { c.cell(st).Add(n) }

// Value returns the current count: the sum over the stripes.  Each
// stripe only grows, so successive Values never decrease and none
// exceeds what had been added when it returned.
func (c *stripedCounter) Value() int64 {
	var sum int64
	for st := Stripe(0); st < stripes; st++ {
		sum += c.cell(st).Load()
	}
	return sum
}

// Set forces the counter to n.  Only tests use this.
func (c *stripedCounter) Set(n int64) {
	c.v.Store(n)
	for st := Stripe(1); st < stripes; st++ {
		c.cell(st).Store(0)
	}
}

// HighWater is an atomic maximum tracker: Observe folds a sample in,
// Value reads the largest sample seen.  The parallel stream engine uses
// it for quantities where the interesting number is the peak, not the
// sum — in-flight window depth and merge reorder-buffer occupancy.
type HighWater struct {
	v atomic.Int64
}

// Observe records n if it exceeds the current maximum.
func (h *HighWater) Observe(n int64) {
	for {
		cur := h.v.Load()
		if n <= cur {
			return
		}
		if h.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the largest observed sample (0 if none).
func (h *HighWater) Value() int64 { return h.v.Load() }

// Gauge is an atomic level meter: unlike a Counter it moves in both
// directions, so it reports how much of something exists *now* (live
// channels, resident idle-channel bytes) rather than how much has ever
// happened.  The control-plane metrics use it for quantities that
// shrink on teardown.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc raises the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Sub lowers the gauge by n.
func (g *Gauge) Sub(n int64) { g.v.Add(-n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Set forces the gauge to n.  Only tests use this.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// otherStripes is the tail of every ledger: the lines of stripes 1 to
// 15.  A ledger is its first line, whose fields are the counters'
// names, followed by the other stripes' lines — the same words, unnamed.
type otherStripes [stripes - 1][lineBytes / 8]atomic.Int64

// kernelLedger's line is what Kernel.send and Call.settle tick for one
// invocation, and the message-id sequence send draws from while it
// holds the line.
type kernelLedger struct {
	// Invocations counts every inter-Eject invocation routed through
	// the kernel, the paper's fundamental cost unit: one per invocation
	// handed to its target's mailbox or to a worker slot.  An invocation
	// that never reaches its target (unknown UID, partitioned link, an
	// Eject that keeps deactivating) is not counted, here or below.
	// Snapshot derives local_invocations (invocations less
	// cross_node_invocations) and process_switches, the paper's logical
	// switches: one per delivery of an invocation to a target Eject and
	// one per delivery of a reply to the invoker (invocations plus
	// replies), whichever goroutine carries them.
	Invocations stripedCounter `metric:"invocations"`
	// CrossNodeInvocations counts those whose source and target Ejects
	// are on different simulated nodes.
	CrossNodeInvocations stripedCounter `metric:"cross_node_invocations"`
	// Replies counts the replies invokers have collected to counted
	// invocations (== completed invocations).
	Replies stripedCounter `metric:"replies"`
	// BytesMoved counts payload bytes crossing Eject boundaries.
	BytesMoved stripedCounter `metric:"bytes_moved"`
	// msgSeq is the stripe's count of message ids drawn.
	msgSeq atomic.Int64
	_      [lineBytes - 5*8]byte
	rest   otherStripes
}

// portLedger's line is what the transput ports tick while serving or
// issuing one Transfer or Deliver.
type portLedger struct {
	// TransferInvocations counts stream-protocol Transfer (pull)
	// invocations specifically, and DeliverInvocations the write-only
	// dual, so the per-datum counts of E1–E4 can be isolated from
	// control-plane invocations (initialisation, close, lookup...).
	TransferInvocations stripedCounter `metric:"transfer_invocations"`
	DeliverInvocations  stripedCounter `metric:"deliver_invocations"`
	// ItemsMoved counts stream items (records or byte chunks) that
	// crossed an Eject boundary inside Transfer/Deliver payloads.
	ItemsMoved stripedCounter `metric:"items_moved"`
	// WireBytesSaved counts payload bytes handed across a port boundary
	// by ownership transfer (PutOwned / zero-copy Deliver absorption)
	// instead of being copied — the data plane's copy-elision meter.
	WireBytesSaved stripedCounter `metric:"wire_bytes_saved"`
	// ShardFrames counts framed items (data, punctuation, epilogue)
	// moved across sharded pipeline links by the parallel engine.
	ShardFrames stripedCounter `metric:"shard_frames"`
	// CapabilityCacheHits / CapabilityCacheMisses count capability-mode
	// channel verifications served by the direct-mapped capability
	// cache versus those that had to re-verify against the striped
	// table (first use per channel-binding epoch, or cache eviction).
	CapabilityCacheHits   stripedCounter `metric:"cap_cache_hits"`
	CapabilityCacheMisses stripedCounter `metric:"cap_cache_misses"`
	// WindowGateStalls counts the times a helper of a windowed port
	// (either face) parked at the window gate: the peer's last grant —
	// the sink's credits, the source's backlog — allowed no further
	// exchange in flight.  The line's eighth and last word.
	WindowGateStalls stripedCounter `metric:"window_gate_stalls"`
	rest             otherStripes
}

// wireLedger's line is what a link and the slab behind it tick for one
// frame.
type wireLedger struct {
	// WireBytes counts the bytes of the wire-codec frames that crossed
	// a link — header and payload, on the simulated network when it
	// encodes payloads and on the socket links always.
	WireBytes stripedCounter `metric:"wire_bytes"`
	// WireFramesEncoded counts payloads pushed through the compact wire
	// codec on cross-node hops (gob-fallback encodes are included; the
	// codec wraps them in a tagged frame too).
	WireFramesEncoded stripedCounter `metric:"wire_frames_encoded"`
	// SlabRetained / SlabReleased count references taken on and dropped
	// from refcounted slab views (frame buffers carved from arenas).
	// At quiescence the two are equal; the difference is the number of
	// live views.  On a socket link that is the read buffers and the
	// items of wire.SpliceCutoff bytes or more: smaller items are copied
	// out of the buffer by the frame reader and are never views.
	SlabRetained stripedCounter `metric:"slab_retained"`
	SlabReleased stripedCounter `metric:"slab_released"`
	_            [lineBytes - 4*8]byte
	rest         otherStripes
}

// Set is the fixed collection of counters the reproduction meters.  A
// single Set is shared by one simulated Eden system (kernel + network
// + devices); independent systems have independent Sets, so parallel
// benchmarks do not contaminate each other.
//
// The three ledgers come first so that, a Set being allocated on its
// own, every line starts a cache line; their counters are fields of the
// Set like the rest (s.Invocations, s.ItemsMoved, s.WireBytes).
//
// The kernel ledger balances: once every reply has been collected,
// replies == invocations on every path, failures included, and the
// derived meters hold by construction (kernel.TestLedgerIdentity).
type Set struct {
	kernelLedger
	portLedger
	wireLedger

	// Activations counts kernel activations of passive Ejects.
	Activations Counter `metric:"activations"`
	// Checkpoints counts Checkpoint operations (stable storage writes).
	Checkpoints Counter `metric:"checkpoints"`
	// Syscalls counts simulated Unix system calls in the Figure 1
	// baseline (read/write/open/close on kernel pipes).
	Syscalls Counter `metric:"syscalls"`
	// EjectsCreated counts Eject registrations, so experiments can
	// report the paper's n+2 vs 2n+3 Eject counts directly.
	EjectsCreated Counter `metric:"ejects_created"`
	// SlabLeaked counts views still outstanding when their slab was
	// closed (pipeline teardown) — the refcount-audit failure counter.
	// It stays zero when every drop path releases its views.
	SlabLeaked Counter `metric:"slab_leaked"`
	// FusionGroups counts fusion groups the pipeline builder compiled
	// (adjacent co-located stages collapsed into one Eject), and
	// FusedStages the member stages inside them — so FusedStages minus
	// FusionGroups is the number of port hops the fusion pass elided.
	// Both stay zero with Options.Fusion off, keeping the paper's
	// stage-per-Eject accounting intact.
	FusionGroups Counter `metric:"fusion_groups"`
	FusedStages  Counter `metric:"fused_stages"`
	// ChannelsLive gauges the number of transput channels currently
	// declared and not yet retired, across every port in the system —
	// the control plane's primary scaling axis (the gateway workload
	// drives it to 10⁵–10⁶).
	ChannelsLive Gauge `metric:"channels_live"`
	// IdleChannelBytes gauges the fixed resident footprint of the live
	// channels: per-channel record size plus the amortised index-entry
	// share, added on Declare and subtracted on Retire.  Dividing by
	// ChannelsLive gives the advertised bytes-per-idle-channel figure.
	IdleChannelBytes Gauge `metric:"idle_channel_bytes"`
	// ChannelLookupContention counts lookups (kernel binding resolution
	// and port channel resolution) that missed the lock-free snapshot
	// and fell back to the striped table's locked slow path — the
	// control plane's serialisation meter.  Zero in steady state.
	ChannelLookupContention Counter `metric:"channel_lookup_contention"`
	// WindowDepthHighWater tracks the peak number of concurrently
	// outstanding Transfer/Deliver invocations on any windowed port.
	WindowDepthHighWater HighWater `metric:"window_depth_hw"`
	// MergeReorderHighWater tracks the peak number of frames or batches
	// held back for their turn: by an order-preserving shard merger
	// (stash + ready queue), at a windowed port, and at a sink's lane.
	MergeReorderHighWater HighWater `metric:"merge_reorder_hw"`
	// BatchSizeHighWater tracks the largest batch size any adaptive
	// per-link AIMD controller reached (Transfer Max / Deliver batch).
	BatchSizeHighWater HighWater `metric:"batch_size_hw"`
	// ExchangeRTT is the round trip of an active port's Transfer or
	// Deliver, issue to reply: every exchange of an adaptive link, one
	// in 64 of a fixed-size one (core.Link.Exchange).
	ExchangeRTT Histogram `metric:"exchange_rtt"`
}

// NextID draws a message id on the given stripe: that stripe's next
// sequence number, times the stripe count, plus the stripe.  Ids are
// never 0 and never repeat within a Set; they are not one sequence — an
// id drawn later on another stripe may be smaller.  The sequence sits
// in the kernel ledger because kernel.send draws an id per invocation
// it counts, and here the draw writes the line send already holds.
func (s *Set) NextID(st Stripe) uint64 {
	st %= stripes
	return uint64(stripeWord(&s.msgSeq, st).Add(1))*stripes + uint64(st)
}

// idBlock is how many sequence numbers DrawID reserves at a time.
const idBlock = 64

// IDBlock is a run of one stripe's message ids that one owner draws
// without an atomic.  The zero IDBlock is empty.
type IDBlock struct{ next, end uint64 }

// DrawID draws a message id from b, refilling it with the stripe's next
// idBlock sequence numbers, one atomic add, when it is empty: NextID's
// ids, so the two never collide.  b is drawn on stripe st only, by one
// goroutine at a time.
func (s *Set) DrawID(b *IDBlock, st Stripe) uint64 {
	st %= stripes
	if b.next == b.end {
		b.end = uint64(stripeWord(&s.msgSeq, st).Add(idBlock))
		b.next = b.end - idBlock
	}
	b.next++
	return b.next*stripes + uint64(st)
}

// Histogram is a log-bucket histogram of nanosecond durations, eight
// buckets a power of two: a quantile it reports, its bucket's midpoint,
// is within 1/16 of the sample's; 2³² ns (4.3 s) and more share the last.
// Record is one atomic add on words every recorder shares, so hot paths
// sample.  A Snapshot reports <name>_samples, _p50_ns, _p99_ns and
// _p999_ns over its whole history.
type Histogram struct {
	b [histBuckets]atomic.Int64
}

const (
	histSub     = 8                  // buckets a power of two
	histBuckets = (32 - 2) * histSub // up to 2³² ns; 1 920 B
)

// histBucket is the bucket of ns: 0–7 one each, then eight a power of two.
func histBucket(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	exp := bits.Len64(uint64(ns)) - 1
	return min((exp-2)*histSub+int(ns>>(exp-3))&(histSub-1), histBuckets-1)
}

// histLower is the smallest duration bucket b holds.
func histLower(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	return int64(histSub+b%histSub) << (b/histSub - 1)
}

// Record adds one sample of ns nanoseconds.
func (h *Histogram) Record(ns int64) { h.b[histBucket(ns)].Add(1) }

// histCounts is a copy of a Histogram's buckets.
type histCounts [histBuckets]int64

// quantile is the midpoint of the bucket holding the q-quantile of n
// samples, 0 with none.
func (c *histCounts) quantile(n int64, q float64) int64 {
	rank := max(int64(math.Ceil(q*float64(n))), 1)
	for b, seen := 0, int64(0); b < histBuckets; b++ {
		if seen += c[b]; seen >= rank {
			return (histLower(b) + histLower(b+1) - 1) / 2
		}
	}
	return 0
}

// put enters c, the buckets of histogram name, in sn: the sample count
// and three quantiles.
func (sn *Snapshot) put(name string, c histCounts) {
	var n int64
	for _, v := range c {
		n += v
	}
	sn.Values[name+"_samples"] = n
	sn.Values[name+"_p50_ns"] = c.quantile(n, 0.50)
	sn.Values[name+"_p99_ns"] = c.quantile(n, 0.99)
	sn.Values[name+"_p999_ns"] = c.quantile(n, 0.999)
}

// Snapshot is a point-in-time copy of every counter in a Set.
type Snapshot struct {
	Values map[string]int64
}

// meter is one row of a Set's snapshot table: the meter's name, where
// its field lies in the Set, and how to read a field of its type (nil
// for a Histogram).
type meter struct {
	name string
	off  uintptr
	read func(unsafe.Pointer) int64
}

// readers are the meter types, each with how to read one at an address:
// a Histogram's is nil, as it reads as several values (Snapshot.put).
var readers = map[reflect.Type]func(unsafe.Pointer) int64{
	reflect.TypeFor[stripedCounter](): func(p unsafe.Pointer) int64 { return (*stripedCounter)(p).Value() },
	reflect.TypeFor[Counter]():        func(p unsafe.Pointer) int64 { return (*Counter)(p).Value() },
	reflect.TypeFor[Gauge]():          func(p unsafe.Pointer) int64 { return (*Gauge)(p).Value() },
	reflect.TypeFor[HighWater]():      func(p unsafe.Pointer) int64 { return (*HighWater)(p).Value() },
	reflect.TypeFor[Histogram]():      nil,
}

// meters is Set's snapshot table, in field order.
var meters = func() []meter {
	table, err := meterTable(reflect.TypeFor[Set]())
	if err != nil {
		panic(err)
	}
	return table
}()

// snapshotNames holds every name a Snapshot of a Set carries.
var snapshotNames = (&Set{}).Snapshot().Values

// names are the names m puts in a Snapshot: its tag, or a histogram's.
func (m meter) names() []string {
	if m.read != nil {
		return []string{m.name}
	}
	sn := Snapshot{Values: make(map[string]int64)}
	sn.put(m.name, histCounts{})
	return slices.Collect(maps.Keys(sn.Values))
}

// meterTable reads the meters of struct type t, and of the structs it
// embeds, off their metric tags.  Every meter field must carry a tag,
// no two meters may share a snapshot name (a derived meter's among
// them), and only a meter may carry one.
func meterTable(t reflect.Type) ([]meter, error) {
	var table []meter
	taken := map[string]bool{"process_switches": true, "local_invocations": true} // derived
	var walk func(t reflect.Type, base uintptr) error
	walk = func(t reflect.Type, base uintptr) error {
		for i := range t.NumField() {
			f := t.Field(i)
			name := f.Tag.Get("metric")
			read, isMeter := readers[f.Type]
			m := meter{name, base + f.Offset, read}
			switch {
			case isMeter && name == "":
				return fmt.Errorf("metrics: meter %s.%s has no metric tag", t.Name(), f.Name)
			case !isMeter && name != "":
				return fmt.Errorf("metrics: %s.%s is tagged %q but is not a meter", t.Name(), f.Name, name)
			case isMeter && slices.ContainsFunc(m.names(), func(n string) bool { return taken[n] }):
				return fmt.Errorf("metrics: %s.%s reuses the name %q", t.Name(), f.Name, name)
			case isMeter:
				for _, n := range m.names() {
					taken[n] = true
				}
				table = append(table, m)
			case f.Anonymous && f.Type.Kind() == reflect.Struct:
				if err := walk(f.Type, base+f.Offset); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return table, walk(t, 0)
}

// Snapshot captures the current value of every counter.
func (s *Set) Snapshot() Snapshot {
	snap := Snapshot{Values: make(map[string]int64, len(meters)+5)} // +3 a histogram, +2 derived
	for _, m := range meters {
		at := unsafe.Add(unsafe.Pointer(s), m.off)
		if m.read != nil {
			snap.Values[m.name] = m.read(at)
			continue
		}
		var c histCounts
		for b := range c {
			c[b] = (*Histogram)(at).b[b].Load()
		}
		snap.put(m.name, c)
	}
	// The identities: no field, no tick, and exact in every Snapshot and Diff.
	v := snap.Values
	v["process_switches"] = v["invocations"] + v["replies"]
	v["local_invocations"] = v["invocations"] - v["cross_node_invocations"]
	return snap
}

// Diff returns a Snapshot holding later-minus-earlier for every
// counter, and a histogram's readings as later has them: a Snapshot
// keeps no buckets, which would grow every one by the histogram's size.
// It panics if the snapshots have different key sets, which would
// indicate mixed metric versions.
func Diff(earlier, later Snapshot) Snapshot {
	if len(earlier.Values) != len(later.Values) {
		panic("metrics: mismatched snapshots")
	}
	d := Snapshot{Values: make(map[string]int64, len(later.Values))}
	for k, v := range later.Values {
		ev, ok := earlier.Values[k]
		if !ok {
			panic("metrics: mismatched snapshots: missing " + k)
		}
		d.Values[k] = v - ev
	}
	for _, m := range meters {
		if m.read == nil { // a histogram: its readings are not counts
			for _, n := range m.names() {
				d.Values[n] = later.Values[n]
			}
		}
	}
	return d
}

// Get returns the value of the meter whose snapshot name is name; a
// zero Snapshot reads 0.  It panics if no meter of a Set carries that
// name, so a misspelled name fails where it is read instead of reading 0.
func (sn Snapshot) Get(name string) int64 {
	v, ok := sn.Values[name]
	if _, known := snapshotNames[name]; !ok && !known {
		panic("metrics: no meter named " + name)
	}
	return v
}

// String renders the snapshot as "name=value" pairs in sorted order,
// omitting zero counters to keep experiment output readable.
func (sn Snapshot) String() string {
	keys := make([]string, 0, len(sn.Values))
	for k, v := range sn.Values {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, sn.Values[k])
	}
	return b.String()
}
