package main

import (
	"fmt"
	"strings"

	"asymstream/internal/transput"
)

// metricDef names one metric.  The names are fixed; later issues and
// BENCHMARK.json cite them (benchmark_test.go holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the base's median by which an end-to-end
	// metric may worsen before -compare calls it worse.
	bound float64
}

// endToEnd is what a pipeline user pays.  failed_share is the seventh:
// it must be 0, so it has an absolute bound and travels beside these
// (as attempted/failed in the harness line) instead of among them.
//
// The bounds are what the shared 2-core reference host supports: the
// harness allows 0.25 at most and the timing rows take it.  Over ten
// runs (each six to eight repetitions, the timing figures the fast
// decile of a repetition's slices, measure.go) the quartile distance ÷
// median of a timing metric was 0.04–0.09 on most rows and up to 0.15
// where the host changed speed for whole runs; a repetition's mean
// spread 0.29–0.35 on bridge-echo in the harness's own check.
// Allocations (at most 0.004) and the heap (0.11–0.19 on
// push-tcp-bulk, where the link's read slab parks up to four chunks of
// whatever size its last frames had, under 0.04 elsewhere) do not
// depend on the neighbours; the harness line carries the heap's mean
// over a run's repetitions for that reason (harnessValue, main.go).
var endToEnd = []metricDef{
	{"items_per_s", "items/s", "higher", 0.25},
	{"item_latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_item", "us", "lower", 0.25},
	{"allocs_per_item", "count", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// stageNames are the stage actors a linear pipeline can have; the
// local workloads use all six, the wire workloads fewer.
var stageNames = []string{"src", "f0", "f1", "f2", "f3", "sink"}

// perLayer lists the single-layer metrics in layer order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "kernel.invocations_per_item", unit: "count"},
		{name: "kernel.cross_node_inv_per_item", unit: "count"},
		{name: "kernel.process_switches_per_item", unit: "count"},
		{name: "kernel.transfer_rtt_p50_us", unit: "us"},
		{name: "kernel.deliver_rtt_p50_us", unit: "us"},
		{name: "kernel.invoke_self_us_per_item", unit: "us"},
		{name: "kernel.invoke_local_ns", unit: "ns"},
		{name: "kernel.invoke_local_allocs", unit: "count"},
		{name: "kernel.create_destroy_ns", unit: "ns"},

		{name: "transput.data_inv_per_item", unit: "count"},
		{name: "transput.items_per_inv", unit: "count", better: "higher"},
		{name: "transput.batch_size_hw", unit: "count", better: "higher"},
		{name: "transput.window_depth_hw", unit: "count", better: "higher"},
	}
	for _, st := range stageNames {
		defs = append(defs,
			metricDef{name: "transput.stage." + st + ".busy_share", unit: "ratio", better: "higher"},
			metricDef{name: "transput.stage." + st + ".wait_in_share", unit: "ratio"},
			metricDef{name: "transput.stage." + st + ".blocked_out_share", unit: "ratio"})
	}
	defs = append(defs, []metricDef{
		{name: "transput.port_self_us_per_item", unit: "us"},
		{name: "transput.transfer_hop_ns", unit: "ns"},
		{name: "transput.transfer_hop_allocs", unit: "count"},
		{name: "transput.deliver_hop_ns", unit: "ns"},
		{name: "transput.deliver_hop_allocs", unit: "count"},
		{name: "transput.build_ms", unit: "ms"},
		{name: "transput.declare_retire_ns", unit: "ns"},
		{name: "transput.cap_cache_hit_rate", unit: "ratio", better: "higher"},
		{name: "transput.lookup_contention", unit: "count"},
		{name: "transput.idle_channel_bytes", unit: "B"},

		{name: "wire.bytes_per_item", unit: "B"},
		{name: "wire.frames_per_item", unit: "count"},
		{name: "wire.overhead_share", unit: "ratio"},
		{name: "wire.bytes_saved_per_item", unit: "B", better: "higher"},
		{name: "wire.slab_leaked", unit: "count"},
		{name: "wire.append_ns_per_frame", unit: "ns"},
		{name: "wire.decode_ns_per_frame", unit: "ns"},
		{name: "wire.append_allocs", unit: "count"},
		{name: "wire.decode_allocs", unit: "count"},
		{name: "wire.framereader_ns_per_frame", unit: "ns"},
		{name: "wire.slab_alloc_release_ns", unit: "ns"},
		{name: "wire.gob_fallback_ns", unit: "ns"},

		{name: "netsim.transmit_ns", unit: "ns"},

		{name: "transport.link_transmit_p50_us", unit: "us"},
		{name: "transport.link_self_us_per_item", unit: "us"},
		{name: "transport.transmit_unix_ns", unit: "ns"},
		{name: "transport.transmit_tcp_ns", unit: "ns"},
		{name: "transport.bridge_invoke_ns", unit: "ns"},
		{name: "transport.bridge_invoke_allocs", unit: "count"},
		{name: "transport.remote_next_ns_per_item", unit: "ns"},
		{name: "transport.mesh_setup_ms", unit: "ms"},
		{name: "transport.dial_ms", unit: "ms"},

		{name: "stripemap.load_hit_ns", unit: "ns"},
		{name: "stripemap.load_or_store_ns", unit: "ns"},
		{name: "stripemap.store_delete_ns", unit: "ns"},

		{name: "metrics.snapshot_ns", unit: "ns"},

		{name: "driver.direct_items_per_s", unit: "items/s", better: "higher"},
		{name: "driver.item_latency_p99_us", unit: "us"},
		{name: "driver.item_latency_p999_us", unit: "us"},
		{name: "driver.item_latency_samples", unit: "count", better: "higher"},
		{name: "driver.payload_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "driver.gen_late_p50_us", unit: "us"},
		{name: "driver.gen_late_p99_us", unit: "us"},
		{name: "driver.rep_spread_share", unit: "ratio"},
		{name: "driver.trace_overhead_share", unit: "ratio"},
		{name: "ledger.residual_share", unit: "ratio"},
		{name: "runtime.gc_cycles", unit: "count"},
		{name: "runtime.gc_pause_total_ms", unit: "ms"},
		{name: "runtime.goroutines_peak", unit: "count"},
	}...)
	for i := range defs {
		if defs[i].better == "" {
			defs[i].better = "lower"
		}
	}
	return defs
}()

// endToEndOf derives the end-to-end metrics of one repetition.
func endToEndOf(r repResult) map[string]float64 {
	n := float64(max(r.items, 1))
	return map[string]float64{
		"items_per_s":         r.rate(),
		"item_latency_p50_us": r.lat.p50,
		"cpu_us_per_item":     r.cpuUs(),
		"allocs_per_item":     float64(r.m.mallocs) / n,
		"live_heap_mb":        float64(r.liveHeap) / (1 << 20),
		"setup_s":             r.setup.Seconds(),
	}
}

// perLayerOf assembles every per-layer metric of one workload from the
// traced pass: plain are its untraced repetitions and p the median one
// of them by throughput, traced the traced one with its tracer, iso the
// isolated figures.  A metric that does not apply to the workload (a
// wire figure on a one-node pipeline) is absent, which reads as 0.
func perLayerOf(p repResult, plain []repResult, traced repResult, tr *tracer, iso map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for name, v := range iso {
		out[name] = v
	}
	n := float64(max(p.items, 1))
	c := p.m.counters
	per := func(counter string) float64 { return float64(c.Get(counter)) / n }

	out["kernel.invocations_per_item"] = per("invocations")
	out["kernel.cross_node_inv_per_item"] = per("cross_node_invocations")
	out["kernel.process_switches_per_item"] = per("process_switches")
	data := dataInvocations(c)
	out["transput.data_inv_per_item"] = float64(data) / n
	if moved := c.Get("items_moved"); data > 0 {
		out["transput.items_per_inv"] = float64(moved) / float64(data)
	}
	out["transput.batch_size_hw"] = float64(p.m.levels.Get("batch_size_hw"))
	out["transput.window_depth_hw"] = float64(p.m.levels.Get("window_depth_hw"))
	out["transput.build_ms"] = float64(p.build) / 1e6
	if lookups := c.Get("cap_cache_hits") + c.Get("cap_cache_misses"); lookups > 0 {
		out["transput.cap_cache_hit_rate"] = float64(c.Get("cap_cache_hits")) / float64(lookups)
	}
	out["transput.lookup_contention"] = float64(c.Get("channel_lookup_contention"))
	out["transput.idle_channel_bytes"] = p.idleChanBytes

	out["wire.bytes_per_item"] = per("wire_bytes")
	out["wire.frames_per_item"] = per("wire_frames_encoded")
	if wb := c.Get("wire_bytes"); wb > 0 {
		// Payload that crossed: every item on every wire link.  What is
		// left of the wire bytes is headers, channel ids, credits and
		// the request/reply frames that carry no items.
		crossings := float64(c.Get("cross_node_invocations")) / float64(max(data, 1)) * float64(c.Get("items_moved"))
		out["wire.overhead_share"] = 1 - crossings*float64(p.itemBytes)/float64(wb)
	}
	out["wire.bytes_saved_per_item"] = per("wire_bytes_saved")
	out["wire.slab_leaked"] = float64(p.slabLeaked)

	out["driver.item_latency_p99_us"] = p.lat.p99
	out["driver.item_latency_p999_us"] = p.lat.p999
	out["driver.item_latency_samples"] = float64(p.lat.n)
	out["driver.payload_mb_per_s"] = n * float64(p.itemBytes) / 1e6 / p.m.elapsed.Seconds()
	out["driver.gen_late_p50_us"] = p.genLateP50Us
	out["driver.gen_late_p99_us"] = p.genLateP99Us
	rates := make([]float64, len(plain))
	for i, r := range plain {
		rates[i] = r.rate()
	}
	out["driver.rep_spread_share"] = summarize(rates, "").spread()
	out["runtime.gc_cycles"] = float64(p.m.gcCycles)
	out["runtime.gc_pause_total_ms"] = float64(p.m.gcPause) / 1e6
	out["runtime.goroutines_peak"] = float64(p.goroutinesPeak)

	// In situ, from the traced repetition.
	l := traced.ledger
	out["kernel.transfer_rtt_p50_us"] = tr.opP50(transput.OpTransfer)
	out["kernel.deliver_rtt_p50_us"] = tr.opP50(transput.OpDeliver)
	out["kernel.invoke_self_us_per_item"] = l.InvokeUs
	out["transput.port_self_us_per_item"] = l.PortUs
	out["transport.link_transmit_p50_us"] = tr.mergedQuantile("link/transmit/", 0.5) / 1e3
	out["transport.link_self_us_per_item"] = l.LinkUs
	out["ledger.residual_share"] = l.ResidualShare
	if tw, pw := traced.m.elapsed.Seconds()/float64(max(traced.items, 1)), p.m.elapsed.Seconds()/n; pw > 0 {
		out["driver.trace_overhead_share"] = tw/pw - 1
	}
	for _, a := range tr.all {
		life := float64(a.root.End - a.root.Start)
		if life <= 0 || !isStage(a.name) {
			continue
		}
		prefix := "transput.stage." + a.name + "."
		out[prefix+"wait_in_share"] = float64(a.waitIn.ns) / life
		out[prefix+"blocked_out_share"] = float64(a.blockedOut.ns) / life
		out[prefix+"busy_share"] = 1 - float64(a.callsNs)/life
	}
	return out
}

func isStage(name string) bool {
	for _, s := range stageNames {
		if s == name {
			return true
		}
	}
	return false
}

// formatMetric is one printed line: name, value, unit.
func formatMetric(name string, v float64, unit string) string {
	return fmt.Sprintf("  %-44s %14s %s", name, trimFloat(v), unit)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}
