// E14: the real-wire transput grid.  Everything E2–E4 measure on the
// simulated network re-runs here on actual kernel sockets — Unix
// domain and TCP loopback — via netsim.SocketNetwork: same ports, same
// credit protocol, same slab data plane, with the frames now crossing
// a real file descriptor through the per-direction write coalescer.
//
// The grid answers three questions the simulator cannot:
//
//   - what a cross-node hop costs on a real wire (echo round-trips,
//     UDS in the low microseconds, TCP loopback roughly an order of
//     magnitude above netsim);
//   - whether syscall-amortized framing keeps pipeline throughput
//     within reach of the in-process simulator (the coalescer batches
//     every multiplexed channel's frames into single vectored writes);
//   - whether the reproduction's invariants survive the wire: sink
//     digests byte-identical to netsim, the paper's invocation counts
//     at batch 1, and SlabLeaked == 0 after the leak audit — including
//     under early abort.
package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"asymstream/internal/filters"
	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// transportSweep is the link sweep every E14 section runs: the netsim
// baseline first, then the two real wires.
var transportSweep = []transput.Transport{
	transput.TransportNetsim, transput.TransportUnix, transput.TransportTCP,
}

// newTransportKernel builds a 2-node kernel on the given link, with
// payload encoding on for netsim so its wire accounting matches what
// the socket links do for real.
func newTransportKernel(tr transput.Transport) (*kernel.Kernel, error) {
	return transput.NewTransportKernel(kernel.Config{
		Net: netsim.Config{Nodes: 2, EncodePayloads: true},
	}, tr)
}

// HopResult is one echo-latency measurement (echoEject, shared with
// E9, answers each invocation with its own payload: two wire crossings
// per Invoke).
type HopResult struct {
	Transport string  `json:"transport"`
	Hops      int     `json:"hops"`
	NsPerHop  float64 `json:"ns_per_hop"`
}

// RunTransportHops measures the per-hop cost of a cross-node
// invocation on tr: rounds echo round-trips from node 0 to an Eject on
// node 1, each one request hop plus one reply hop.
func RunTransportHops(tr transput.Transport, rounds int) (HopResult, error) {
	res := HopResult{Transport: string(tr), Hops: 2 * rounds}
	k, err := newTransportKernel(tr)
	if err != nil {
		return res, err
	}
	defer k.Shutdown()
	id, err := k.Create(echoEject{}, 1)
	if err != nil {
		return res, err
	}
	// Warm the link (lazy goroutine start, pools, route caches).
	for i := 0; i < 16; i++ {
		if _, err := k.Invoke(uid.Nil, id, transput.OpChannels, nil); err != nil {
			return res, err
		}
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := k.Invoke(uid.Nil, id, transput.OpChannels, nil); err != nil {
			return res, err
		}
	}
	elapsed := time.Since(start)
	res.NsPerHop = float64(elapsed.Nanoseconds()) / float64(2*rounds)
	return res, nil
}

// TransportRunResult is one pipeline run over a given link.
type TransportRunResult struct {
	LinearResult
	Transport  string
	Digest     string
	WireBytes  int64
	SlabLeaked int64
}

// RunTransportLinear runs one linear pipeline spread over the 2-node
// kernel's link: source on node 0, filters and sink on node 1, so
// every Transfer/Deliver exchange crosses the wire.  The sink digests
// its items (length-prefixed sha256), which is what lets VerifyTransport
// demand byte equality across transports.  SlabLeaked is read after
// the kernel's shutdown leak audit, so it covers the link's read slabs.
func RunTransportLinear(tr transput.Transport, d transput.Discipline, n, items int, opt transput.Options) (TransportRunResult, error) {
	res := TransportRunResult{Transport: string(tr)}
	k, err := newTransportKernel(tr)
	if err != nil {
		return res, err
	}
	shut := k.Shutdown
	defer func() {
		if shut != nil {
			shut()
		}
	}()

	opt.Transport = tr
	opt.Placement = crossNodePlacement(2)

	var count int64
	h := sha256.New()
	sink := func(in transput.ItemReader) error {
		var lenbuf [8]byte
		for {
			item, err := in.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			binary.BigEndian.PutUint64(lenbuf[:], uint64(len(item)))
			h.Write(lenbuf[:])
			h.Write(item)
			count++
		}
	}
	before := k.Metrics().Snapshot()
	p, err := transput.BuildPipeline(k, d, counterSource(items), identityFilters(n), sink, opt)
	if err != nil {
		return res, err
	}
	start := time.Now()
	if err := p.Run(); err != nil {
		return res, err
	}
	elapsed := time.Since(start)
	diff := metrics.Diff(before, k.Metrics().Snapshot())
	p.Destroy()
	// Shutdown closes the link, which closes its read slabs and charges
	// any still-outstanding view to SlabLeaked — the audit E14 reports.
	k.Shutdown()
	shut = nil

	res.LinearResult = LinearResult{
		Discipline:       d,
		Filters:          n,
		Items:            count,
		Ejects:           p.Ejects(),
		DataInvocations:  diff.Get("transfer_invocations") + diff.Get("deliver_invocations"),
		TotalInvocations: diff.Get("invocations"),
		ProcessSwitches:  diff.Get("process_switches"),
		BytesMoved:       diff.Get("bytes_moved"),
		Elapsed:          elapsed,
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	res.WireBytes = diff.Get("wire_bytes")
	res.SlabLeaked = k.Metrics().SlabLeaked.Value()
	return res, nil
}

// TransportPipelineReport is one grid row of BENCH_transport.json.
type TransportPipelineReport struct {
	Transport   string  `json:"transport"`
	Discipline  string  `json:"discipline"`
	Filters     int     `json:"filters"`
	Items       int64   `json:"items"`
	InvPerDatum float64 `json:"inv_per_datum"`
	ItemsPerSec float64 `json:"items_per_sec"`
	WireBytes   int64   `json:"wire_bytes"`
	SlabLeaked  int64   `json:"slab_leaked"`
	Digest      string  `json:"digest"`
}

// TransportReport is the document transput-bench -json writes to
// BENCH_transport.json: echo hop costs plus the pipeline grid, for
// netsim, Unix-domain and TCP-loopback links.
type TransportReport struct {
	Rounds    int                       `json:"echo_rounds"`
	Items     int                       `json:"items"`
	Hops      []HopResult               `json:"hops"`
	Pipelines []TransportPipelineReport `json:"pipelines"`
}

// RunTransportGrid produces the full E14 measurement set.  The
// throughput rows run the adaptive data plane (the coalescer's batch
// amortization is the point); items is per run.
func RunTransportGrid(rounds, items int) (TransportReport, error) {
	rep := TransportReport{Rounds: rounds, Items: items}
	for _, tr := range transportSweep {
		hop, err := RunTransportHops(tr, rounds)
		if err != nil {
			return rep, fmt.Errorf("hops %s: %v", tr, err)
		}
		rep.Hops = append(rep.Hops, hop)
	}
	for _, tr := range transportSweep {
		for _, n := range []int{1, 2} {
			// Adaptive batching with read-ahead: over a real wire the
			// per-invocation round trip is the cost to hide, so the
			// throughput rows let the AIMD controller grow batches and
			// keep one batch in flight (the same knobs BENCH_kernel's
			// adaptive rows use).
			opt := transput.Options{BatchMin: 1, BatchMax: 64, Prefetch: 2}
			r, err := RunTransportLinear(tr, transput.ReadOnly, n, items, opt)
			if err != nil {
				return rep, fmt.Errorf("pipeline %s n=%d: %v", tr, n, err)
			}
			rep.Pipelines = append(rep.Pipelines, TransportPipelineReport{
				Transport:   string(tr),
				Discipline:  r.Discipline.String(),
				Filters:     n,
				Items:       r.Items,
				InvPerDatum: r.PerDatum(),
				ItemsPerSec: r.Throughput(),
				WireBytes:   r.WireBytes,
				SlabLeaked:  r.SlabLeaked,
				Digest:      r.Digest,
			})
		}
	}
	return rep, nil
}

// WriteTransportBenchJSON runs the transport grid and writes the
// report to path as indented JSON.
func WriteTransportBenchJSON(path string, rounds, items int) error {
	rep, err := RunTransportGrid(rounds, items)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// E14Transport renders the transport grid as an experiment table.
func E14Transport(p Params) (Table, error) {
	rounds, items := 2000, p.Items
	if p.Items <= 300 { // quick profile
		rounds = 300
	}
	t := Table{
		ID:      "E14",
		Title:   "real-wire transput — netsim vs Unix-domain vs TCP loopback",
		Columns: []string{"transport", "figure", "value"},
		Notes: []string{
			"per-direction write coalescer: one vectored write per flush, frames multiplexed across channels",
			"read side decodes frames in place from slab chunks; items cross to ports as ownership-transferred sub-views",
			fmt.Sprintf("%d echo rounds (2 hops each); pipelines run %d items, source on node 0, rest on node 1", rounds, items),
		},
	}
	rep, err := RunTransportGrid(rounds, items)
	if err != nil {
		return t, err
	}
	for _, h := range rep.Hops {
		t.Rows = append(t.Rows, []string{h.Transport, "invoke latency",
			fmt.Sprintf("%.1f µs/hop", h.NsPerHop/1e3)})
	}
	for _, r := range rep.Pipelines {
		t.Rows = append(t.Rows, []string{r.Transport,
			fmt.Sprintf("%s n=%d", r.Discipline, r.Filters),
			fmt.Sprintf("%.0f items/s, %.2f inv/datum, %d wire B, leaked %d",
				r.ItemsPerSec, r.InvPerDatum, r.WireBytes, r.SlabLeaked)})
	}
	return t, nil
}

// VerifyTransport re-derives the reproduction's invariants across a
// real wire: for each discipline, the sink digest over UDS and TCP is
// byte-identical to netsim's; pinned to the paper's accounting
// (BatchMin = BatchMax = 1) the invocation counts match the formulas;
// the slab leak audit stays at zero, including when a Head filter
// aborts the stream early.  Timing claims (hop latency, throughput
// ratios) are deliberately not asserted here — they belong in
// BENCH_transport.json, not a correctness gate.
func VerifyTransport(p Params) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	items := p.Items
	if items > 500 {
		items = 500 // 3 transports × 3 disciplines; keep the gate fast
	}
	const n = 2
	pinned := transput.Options{BatchMin: 1, BatchMax: 1}

	for _, d := range []transput.Discipline{transput.ReadOnly, transput.WriteOnly, transput.Buffered} {
		want := ""
		for _, tr := range transportSweep {
			r, err := RunTransportLinear(tr, d, n, items, pinned)
			if err != nil {
				fail("transport %s %s: %v", tr, d, err)
				continue
			}
			if r.Items != int64(items) {
				fail("transport %s %s: %d items reached the sink, want %d", tr, d, r.Items, items)
			}
			if want == "" {
				want = r.Digest
			} else if r.Digest != want {
				fail("transport %s %s: sink digest differs from netsim's (wire corrupted the stream)", tr, d)
			}
			if r.SlabLeaked != 0 {
				fail("transport %s %s: SlabLeaked = %d after shutdown", tr, d, r.SlabLeaked)
			}
			// The paper's counting claims, unchanged by the wire.
			switch d {
			case transput.ReadOnly:
				if r.Ejects != n+2 {
					fail("transport %s read-only: %d Ejects, paper predicts %d", tr, r.Ejects, n+2)
				}
				if diff := r.PerDatum() - float64(n+1); diff > 0.2 || diff < -0.2 {
					fail("transport %s read-only: %.3f inv/datum, paper predicts %d", tr, r.PerDatum(), n+1)
				}
			case transput.Buffered:
				if diff := r.PerDatum() - float64(2*n+2); diff > 0.4 || diff < -0.4 {
					fail("transport %s buffered: %.3f inv/datum, paper predicts %d", tr, r.PerDatum(), 2*n+2)
				}
			}
		}
	}

	// Early abort across the wire: Head(k) cancels upstream mid-stream;
	// the in-flight frames' views must still all be released.
	for _, tr := range transportSweep {
		res, err := runTransportAbort(tr, items)
		if err != nil {
			fail("transport %s abort: %v", tr, err)
			continue
		}
		if res != 0 {
			fail("transport %s abort: SlabLeaked = %d after early cancel", tr, res)
		}
	}
	return bad
}

// runTransportAbort runs a pipeline whose Head filter stops the stream
// after a fraction of the items, returning the post-shutdown leak
// count.
func runTransportAbort(tr transput.Transport, items int) (int64, error) {
	k, err := newTransportKernel(tr)
	if err != nil {
		return 0, err
	}
	opt := transput.Options{Transport: tr, Placement: crossNodePlacement(2)}
	var count int64
	fs := []transput.Filter{{Name: "head", Body: filters.Head(items / 10)}}
	p, err := transput.BuildPipeline(k, transput.ReadOnly, counterSource(items), fs, discardSink(&count), opt)
	if err != nil {
		k.Shutdown()
		return 0, err
	}
	if err := p.Run(); err != nil {
		k.Shutdown()
		return 0, err
	}
	p.Destroy()
	k.Shutdown()
	return k.Metrics().SlabLeaked.Value(), nil
}
