// Package metrics provides the counters with which the reproduction
// meters the quantities the paper reasons about: invocations (the
// paper's unit of communication cost), process switches, bytes moved,
// and — for the Unix baseline of Figure 1 — system calls.
//
// All counters are cheap atomics so that metering does not distort the
// throughput benchmarks that compare the transput disciplines.  A
// Snapshot captures every counter at an instant; Diff subtracts two
// snapshots, which is how the benchmark harness attributes costs to a
// single pipeline run.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
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

// Set is the fixed collection of counters the reproduction meters.  A
// single Set is shared by one simulated Eden system (kernel + network
// + devices); independent systems have independent Sets, so parallel
// benchmarks do not contaminate each other.
type Set struct {
	// Invocations counts every inter-Eject invocation routed through
	// the kernel, the paper's fundamental cost unit.
	Invocations Counter
	// LocalInvocations / CrossNodeInvocations partition Invocations by
	// whether source and target Ejects share a simulated node.
	LocalInvocations     Counter
	CrossNodeInvocations Counter
	// Replies counts invocation replies (== completed invocations).
	Replies Counter
	// ProcessSwitches counts logical switches, as the paper counts
	// them in its "communications overhead and process switching"
	// bullet: one per delivery of an invocation to a target Eject and
	// one per delivery of a reply to the invoker, whichever goroutine
	// carries them.  It is not a count of goroutine hand-offs: a
	// synchronous same-node invoker that serves its own invocation on
	// one of the target's worker slots still makes two.
	ProcessSwitches Counter
	// BytesMoved counts payload bytes crossing Eject boundaries.
	BytesMoved Counter
	// WireBytes counts gob-encoded bytes on cross-node hops (0 when
	// serialisation is disabled).
	WireBytes Counter
	// Activations counts kernel activations of passive Ejects.
	Activations Counter
	// Checkpoints counts Checkpoint operations (stable storage writes).
	Checkpoints Counter
	// Syscalls counts simulated Unix system calls in the Figure 1
	// baseline (read/write/open/close on kernel pipes).
	Syscalls Counter
	// EjectsCreated counts Eject registrations, so experiments can
	// report the paper's n+2 vs 2n+3 Eject counts directly.
	EjectsCreated Counter
	// TransferInvocations counts stream-protocol Transfer (pull)
	// invocations specifically, and DeliverInvocations the write-only
	// dual, so the per-datum counts of E1–E4 can be isolated from
	// control-plane invocations (initialisation, close, lookup...).
	TransferInvocations Counter
	DeliverInvocations  Counter
	// ItemsMoved counts stream items (records or byte chunks) that
	// crossed an Eject boundary inside Transfer/Deliver payloads.
	ItemsMoved Counter
	// ShardFrames counts framed items (data, punctuation, epilogue)
	// moved across sharded pipeline links by the parallel engine.
	ShardFrames Counter
	// WireFramesEncoded counts payloads pushed through the compact wire
	// codec on cross-node hops (gob-fallback encodes are included; the
	// codec wraps them in a tagged frame too).
	WireFramesEncoded Counter
	// WireBytesSaved counts payload bytes handed across a port boundary
	// by ownership transfer (PutOwned / zero-copy Deliver absorption)
	// instead of being copied — the data plane's copy-elision meter.
	WireBytesSaved Counter
	// SlabRetained / SlabReleased count references taken on and dropped
	// from refcounted slab views (frame buffers carved from arenas).
	// At quiescence the two are equal; the difference is the number of
	// live views.
	SlabRetained Counter
	SlabReleased Counter
	// SlabLeaked counts views still outstanding when their slab was
	// closed (pipeline teardown) — the refcount-audit failure counter.
	// It stays zero when every drop path releases its views.
	SlabLeaked Counter
	// FusionGroups counts fusion groups the pipeline builder compiled
	// (adjacent co-located stages collapsed into one Eject), and
	// FusedStages the member stages inside them — so FusedStages minus
	// FusionGroups is the number of port hops the fusion pass elided.
	// Both stay zero with Options.Fusion off, keeping the paper's
	// stage-per-Eject accounting intact.
	FusionGroups Counter
	FusedStages  Counter
	// ChannelsLive gauges the number of transput channels currently
	// declared and not yet retired, across every port in the system —
	// the control plane's primary scaling axis (the gateway workload
	// drives it to 10⁵–10⁶).
	ChannelsLive Gauge
	// IdleChannelBytes gauges the fixed resident footprint of the live
	// channels: per-channel record size plus the amortised index-entry
	// share, added on Declare and subtracted on Retire.  Dividing by
	// ChannelsLive gives the advertised bytes-per-idle-channel figure.
	IdleChannelBytes Gauge
	// ChannelLookupContention counts lookups (kernel binding resolution
	// and port channel resolution) that missed the lock-free snapshot
	// and fell back to the striped table's locked slow path — the
	// control plane's serialisation meter.  Zero in steady state.
	ChannelLookupContention Counter
	// CapabilityCacheHits / CapabilityCacheMisses count capability-mode
	// channel verifications served by the direct-mapped capability
	// cache versus those that had to re-verify against the striped
	// table (first use per channel-binding epoch, or cache eviction).
	CapabilityCacheHits   Counter
	CapabilityCacheMisses Counter
	// WindowDepthHighWater tracks the peak number of concurrently
	// outstanding Transfer/Deliver invocations on any windowed port.
	WindowDepthHighWater HighWater
	// MergeReorderHighWater tracks the peak number of frames held back
	// by an order-preserving shard merger (stash + ready queue).
	MergeReorderHighWater HighWater
	// BatchSizeHighWater tracks the largest batch size any adaptive
	// per-link AIMD controller reached (Transfer Max / Deliver batch).
	BatchSizeHighWater HighWater
}

// Snapshot is a point-in-time copy of every counter in a Set.
type Snapshot struct {
	Values map[string]int64
}

// fieldTable enumerates the counters of a Set by name, in a fixed
// order.  It is built once at package init; Snapshot walks it instead
// of assembling a fresh descriptor slice per call.
var fieldTable = []struct {
	name string
	get  func(*Set) int64
}{
	{"invocations", func(s *Set) int64 { return s.Invocations.Value() }},
	{"local_invocations", func(s *Set) int64 { return s.LocalInvocations.Value() }},
	{"cross_node_invocations", func(s *Set) int64 { return s.CrossNodeInvocations.Value() }},
	{"replies", func(s *Set) int64 { return s.Replies.Value() }},
	{"process_switches", func(s *Set) int64 { return s.ProcessSwitches.Value() }},
	{"bytes_moved", func(s *Set) int64 { return s.BytesMoved.Value() }},
	{"wire_bytes", func(s *Set) int64 { return s.WireBytes.Value() }},
	{"activations", func(s *Set) int64 { return s.Activations.Value() }},
	{"checkpoints", func(s *Set) int64 { return s.Checkpoints.Value() }},
	{"syscalls", func(s *Set) int64 { return s.Syscalls.Value() }},
	{"ejects_created", func(s *Set) int64 { return s.EjectsCreated.Value() }},
	{"transfer_invocations", func(s *Set) int64 { return s.TransferInvocations.Value() }},
	{"deliver_invocations", func(s *Set) int64 { return s.DeliverInvocations.Value() }},
	{"items_moved", func(s *Set) int64 { return s.ItemsMoved.Value() }},
	{"shard_frames", func(s *Set) int64 { return s.ShardFrames.Value() }},
	{"wire_frames_encoded", func(s *Set) int64 { return s.WireFramesEncoded.Value() }},
	{"wire_bytes_saved", func(s *Set) int64 { return s.WireBytesSaved.Value() }},
	{"slab_retained", func(s *Set) int64 { return s.SlabRetained.Value() }},
	{"slab_released", func(s *Set) int64 { return s.SlabReleased.Value() }},
	{"slab_leaked", func(s *Set) int64 { return s.SlabLeaked.Value() }},
	{"fusion_groups", func(s *Set) int64 { return s.FusionGroups.Value() }},
	{"fused_stages", func(s *Set) int64 { return s.FusedStages.Value() }},
	{"channels_live", func(s *Set) int64 { return s.ChannelsLive.Value() }},
	{"idle_channel_bytes", func(s *Set) int64 { return s.IdleChannelBytes.Value() }},
	{"channel_lookup_contention", func(s *Set) int64 { return s.ChannelLookupContention.Value() }},
	{"cap_cache_hits", func(s *Set) int64 { return s.CapabilityCacheHits.Value() }},
	{"cap_cache_misses", func(s *Set) int64 { return s.CapabilityCacheMisses.Value() }},
	{"window_depth_hw", func(s *Set) int64 { return s.WindowDepthHighWater.Value() }},
	{"merge_reorder_hw", func(s *Set) int64 { return s.MergeReorderHighWater.Value() }},
	{"batch_size_hw", func(s *Set) int64 { return s.BatchSizeHighWater.Value() }},
}

// Snapshot captures the current value of every counter.
func (s *Set) Snapshot() Snapshot {
	snap := Snapshot{Values: make(map[string]int64, len(fieldTable))}
	for _, f := range fieldTable {
		snap.Values[f.name] = f.get(s)
	}
	return snap
}

// Diff returns a Snapshot holding later-minus-earlier for every
// counter.  It panics if the snapshots have different key sets, which
// would indicate mixed metric versions.
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
	return d
}

// Get returns the named counter value (0 if absent).
func (sn Snapshot) Get(name string) int64 { return sn.Values[name] }

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

// Registry maps names to Sets so tools can enumerate the systems that
// exist in one process (the shell creates one per session).
type Registry struct {
	mu   sync.Mutex
	sets map[string]*Set
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{sets: make(map[string]*Set)} }

// Register adds a named Set, replacing any previous Set of that name.
func (r *Registry) Register(name string, s *Set) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sets[name] = s
}

// Get looks up a Set by name.
func (r *Registry) Get(name string) (*Set, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sets[name]
	return s, ok
}

// Names returns the registered names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.sets))
	for n := range r.sets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
