package main

import (
	"fmt"
	"time"

	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
)

// repConfig is what one repetition is asked to do.
type repConfig struct {
	seed int64
	// scale multiplies the workload's fixed item count: 1 for a timed
	// repetition, 0.1 for the traced pair, 0.01 under -quick.
	scale float64
	// trace, when set, records the repetition's spans.
	trace *tracer
}

// scaled applies c.scale to a count, never below floor.
func (c repConfig) scaled(n, floor int) int {
	return max(int(float64(n)*c.scale), floor)
}

// repResult is what one repetition measured and checked.
type repResult struct {
	items     int // items (or round trips) the consumer received
	itemBytes int
	setup     time.Duration
	m         measured
	genCPU    time.Duration // the paced generator thread's own CPU
	liveHeap  uint64
	lat       latency
	// The slices' throughput and CPU per item (measure.go); 0 when the
	// run held no whole slice, and the whole run's figures stand in.
	sliceRate, sliceCPUUs float64

	// The oracle's verdict: operations attempted (items plus the
	// structural and quiescence checks) and how many failed, with the
	// reasons.
	attempted int
	failed    int
	why       []string

	// invalid marks a paced repetition whose generator ran late
	// (pace.go); the caller runs it again, once.
	invalid bool

	// Context for the per-layer metrics.
	build          time.Duration // BuildPipeline, or channel admission
	goroutinesPeak int
	genLateP50Us   float64
	genLateP99Us   float64
	idleChanBytes  float64 // gateway-mux: IdleChannelBytes ÷ ChannelsLive
	slabLeaked     int64   // after teardown
	ledger         ledger  // traced repetitions only
}

// latency is a repetition's item latencies reduced to what is
// reported, so that the samples do not stay on the heap into the next
// repetition's live_heap_mb.
type latency struct {
	p50, p99, p999 float64 // µs
	n              int
}

// latencyOf reduces the samples, which are in arrival order, perSlice
// of them to a slice of the run.  p50 is the fast decile of the
// slices' medians, as throughput and CPU are of theirs (measure.go),
// and the plain median when there is no whole slice; the tail
// percentiles are taken over every sample.
func latencyOf(us []float64, perSlice int) latency {
	var medians []float64
	for i := 0; i+perSlice <= len(us); i += perSlice {
		medians = append(medians, median(us[i:i+perSlice]))
	}
	l := latency{percentile(us, 0.5), percentile(us, 0.99), percentile(us, 0.999), len(us)}
	if len(medians) > 0 {
		l.p50 = percentile(medians, fastShare)
	}
	return l
}

// sliced takes the repetition's throughput and CPU from its slices.
func (r *repResult) sliced(s *slicer, other []time.Duration) {
	if len(s.wall) > 0 {
		r.sliceRate, r.sliceCPUUs = s.rate(), s.cpuUs(other)
	}
}

// rate is the repetition's items_per_s.
func (r repResult) rate() float64 {
	if r.sliceRate > 0 {
		return r.sliceRate
	}
	return float64(r.items) / r.m.elapsed.Seconds()
}

// cpuUs is the repetition's cpu_us_per_item.
func (r repResult) cpuUs() float64 {
	if r.sliceRate > 0 {
		return r.sliceCPUUs
	}
	return float64(r.m.cpu-r.genCPU) / 1e3 / float64(max(r.items, 1))
}

// check counts one oracle check, failed when !ok.
func (r *repResult) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.why = append(r.why, fmt.Sprintf(format, args...))
	}
}

// judge takes the oracle's verdict on the stream: every item counts as
// one operation attempted.
func (r *repResult) judge(o *oracle, g *generator, items int) {
	failed, why := o.verify(g, items)
	r.attempted += items
	r.failed += failed
	r.why = append(r.why, why...)
}

// checkQuiescent is the check every repetition ends with, after its
// teardown: every message sent was consumed and nothing is left
// behind.  channels is the ChannelsLive level the teardown can reach:
// zero wherever the workload retires what it declared.
func (r *repResult) checkQuiescent(met *metrics.Set, channels int64, baseGoroutines int) {
	r.slabLeaked = met.SlabLeaked.Value()
	r.check(r.slabLeaked == 0, "%d slab views leaked", r.slabLeaked)
	r.check(met.ChannelsLive.Value() == channels, "%d channels live after teardown, want %d", met.ChannelsLive.Value(), channels)
	left := settleGoroutines(baseGoroutines)
	r.check(left <= baseGoroutines, "%d goroutines after teardown, %d before the run", left, baseGoroutines)
}

// traced closes a traced repetition: the ledger, and the two checks
// that keep it honest.  Self time is a span minus its children, so a
// lost child span would pass unseen into its parent's row: the hook
// must have seen every data invocation the run made (dataInv, from the
// counters), and no row obtained by subtraction may be negative, which
// is what double-counted or misplaced spans produce.  The count cannot
// be held exact on an overlapped workload: a windowed port settles its
// last invocations after the stage bodies have returned, the warm-up's
// after the tracer is armed and the run's after the meter has stopped.
func (r *repResult) traced(t *tracer, items int, dataInv int64) {
	t.armed.Store(false)
	r.ledger = t.ledgerOf(items, r.m.elapsed)
	l := r.ledger
	r.check(t.nest == overlapped || t.invokes.Load() == dataInv, "trace: %d data-invocation spans, the run made %d", t.invokes.Load(), dataInv)
	r.check(min(l.BodyUs, l.PortUs, l.InvokeUs, l.LinkUs) >= 0, "ledger: a row is negative: %+v", l)
}

// abort records an error return: the repetition's operations all count
// as attempted and failed.
func (r *repResult) abort(planned int, err error) repResult {
	r.attempted += planned
	r.failed += planned
	r.why = append(r.why, err.Error())
	return *r
}

// workload is one row of the benchmark.
type workload struct {
	name string
	why  string
	rep  func(c repConfig) repResult
	// gatesLatency is true on pull-uds-paced and bridge-echo only.  On
	// the closed-loop streams latency is anticipation-buffer depth ÷
	// throughput, on gateway-mux the burst ÷ throughput, and adds
	// nothing: the value is still reported (the harness wants every
	// metric from every workload) but -compare does not judge it.
	gatesLatency bool
	// push is the direction data frames travel in, for the isolated
	// wire figures' frame shape.
	push bool
}

// crossEvery places source on node 0, filter i on node (i+1) mod 2 and
// the sink on node 1: with two filters every link crosses the socket.
func crossEvery(role transput.Role, index int) netsim.NodeID {
	switch role {
	case transput.RoleFilter:
		return netsim.NodeID((index + 1) % 2)
	case transput.RoleSink:
		return 1
	default:
		return 0
	}
}

// crossOnce places the source alone on node 0: one wire hop.
func crossOnce(role transput.Role, _ int) netsim.NodeID {
	if role == transput.RoleSource {
		return 0
	}
	return 1
}

var (
	pinned   = transput.Options{BatchMin: 1, BatchMax: 1, Window: 1}
	adaptive = transput.Options{BatchMin: 1, BatchMax: 64, Prefetch: 2, Window: 4}
)

// workloads is the benchmark.  Names are fixed; later issues cite
// them.  Counts are sized on the 2-core reference host so that one
// repetition times about two seconds of work.
var workloads = []workload{
	pipeSpec{
		name: "pull-local-b1",
		why:  "Figure 2's point: 5 invocations per datum exactly, kernel invocation and InPort/OutPort do all the work",
		disc: transput.ReadOnly, filters: 4, opt: pinned, itemSize: 32, items: 340_000, slice: 8192,
	}.workload(),
	pipeSpec{
		name: "push-local-b1",
		why:  "the exact dual: the same port layer driven from the other end, so a gain for pull that costs push shows",
		disc: transput.WriteOnly, filters: 4, opt: pinned, itemSize: 32, items: 360_000, slice: 8192,
	}.workload(),
	pipeSpec{
		name: "pull-uds-adaptive",
		why:  "small frames at full rate over a Unix socket: codec, coalescer, FrameReader and the AIMD/window engine dominate",
		disc: transput.ReadOnly, filters: 2, transport: transput.TransportUnix, place: crossEvery,
		opt: adaptive, itemSize: 64, items: 600_000, slice: 16_384,
	}.workload(),
	pipeSpec{
		name: "push-tcp-bulk",
		why:  "16 KiB items over TCP: per-byte cost (copies, slab views, writev size); an invocation-path change must not move it",
		disc: transput.WriteOnly, filters: 1, transport: transput.TransportTCP, place: crossOnce,
		opt: adaptive, itemSize: 16 << 10, items: 96_000, slice: 2048,
	}.workload(),
	pipeSpec{
		name: "pull-uds-paced",
		why:  "open loop at 5000 items/s, batch 1: latency of six wire crossings with no queueing, and the CPU it costs",
		disc: transput.ReadOnly, filters: 2, transport: transput.TransportUnix, place: crossEvery,
		opt: pinned, itemSize: 64, items: 10_000, slice: 512, rate: 5000,
	}.workload(),
	echoSpec{
		name:     "bridge-echo",
		why:      "the two-process bridge path (nested double encode, own coalescer, reply map) that no pipeline touches",
		itemSize: 64, items: 200_000, slice: 6144,
	}.workload(),
	gatewaySpec{
		name:  "gateway-mux",
		why:   "control plane under a hot set 4x its capability cache: stripemap, chantable generations, pooled records",
		pairs: 100_000, hot: 16_384, visits: 150_000, slice: 4096,
	}.workload(),
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
