package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// The traced run records spans at the three boundaries the benchmark
// can reach without touching the program: around every stage body's
// reader and writer, at the kernel's per-invocation Trace hook, and
// around every Link.Transmit.  Spans aggregate into log-bucket
// histograms; the first maxKeptSpans are kept verbatim for the trace
// file.

const maxKeptSpans = 10000

// span is one record of the trace file.  Start and End are
// nanoseconds since the tracer was made; Parent is the ID of the span
// that caused this one (-1: none known); Seq is the item the span
// worked on (-1: not tied to one item).
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Seq    int64  `json:"seq"`
	// Self is filled in when the trace file is written: the span minus
	// its children among the kept spans.
	Self int64 `json:"self_ns"`
}

// selfTime is a span's duration minus the part of it its children
// cover.  Children may overlap each other and overhang the parent, so
// their intervals are clipped to the parent and merged first.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	self := parent.End - parent.Start
	var end int64 = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		self -= v.b - max(v.a, end)
		end = v.b
	}
	return self
}

// agg is one span name's aggregate: how often, how long in total, and
// the distribution.
type agg struct {
	mu   sync.Mutex
	hist histogram
}

func (a *agg) observe(ns int64) {
	a.mu.Lock()
	a.hist.observe(ns)
	a.mu.Unlock()
}

// tracer collects one traced repetition.  It is armed only around the
// timed pipeline, so set-up and warm-up leave no spans.
type tracer struct {
	base  time.Time
	armed atomic.Bool

	nextID atomic.Int32
	keptMu sync.Mutex
	kept   []span

	aggMu sync.Mutex
	aggs  map[string]*agg
	// hops caches the aggregate of each (operation, node pair), so the
	// kernel hook and the link decorator build a span's name once, not
	// once per span.
	hops sync.Map // hopKey → *hop

	// actors maps an invoker's UID to the stage whose goroutine issues
	// its invocations, so an invocation can find the port call it is
	// nested in.  Filled between build and start; read-only after.
	actors map[uid.UID]*actor
	all    []*actor

	// nest is where the workload's data invocations sit relative to its
	// actors.  The repetition sets it before it arms the tracer.
	nest nesting

	// invokes counts the data invocations the hook saw and invokeNs sums
	// their round trips.  placedNs is the part of invokeNs the hook found
	// where nest says it belongs — under an open call of the invoker's
	// actor, or in the actor's body — by looking, not by assuming; the
	// rest is in no row and shows in the residual.  Wire time is split by
	// where it falls: insideLinkNs lies within the round trips (reply
	// crossings), outsideLinkNs within the port call but before the
	// kernel stamps the invocation (request crossings).
	invokes                     atomic.Int64
	invokeNs, placedNs          atomic.Int64
	insideLinkNs, outsideLinkNs atomic.Int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), aggs: make(map[string]*agg), actors: make(map[uid.UID]*actor)}
}

// dataOp reports whether the ledger counts invocations of op: the
// stream protocol's and the echo's, not control-plane traffic.
func dataOp(op string) bool {
	return op == transput.OpTransfer || op == transput.OpDeliver || op == opEcho
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) agg(name string) *agg {
	t.aggMu.Lock()
	a := t.aggs[name]
	if a == nil {
		a = new(agg)
		t.aggs[name] = a
	}
	t.aggMu.Unlock()
	return a
}

type hopKey struct {
	op       string // "" for a Transmit
	from, to netsim.NodeID
}

type hop struct {
	name string
	agg  *agg
}

func (t *tracer) hop(k hopKey) *hop {
	if h, ok := t.hops.Load(k); ok {
		return h.(*hop)
	}
	name := fmt.Sprintf("link/transmit/n%d-n%d", k.from, k.to)
	if k.op != "" {
		name = fmt.Sprintf("invoke/%s/n%d-n%d", k.op, k.from, k.to)
	}
	h, _ := t.hops.LoadOrStore(k, &hop{name: name, agg: t.agg(name)})
	return h.(*hop)
}

// keep files a finished span in the trace file's sample.
func (t *tracer) keep(s span) {
	if s.ID >= maxKeptSpans {
		return
	}
	t.keptMu.Lock()
	t.kept = append(t.kept, s)
	t.keptMu.Unlock()
}

// actor is one goroutine whose lifetime the ledger accounts for: a
// stage body, the echo caller, or the gateway pump.  Its own spans are
// recorded without locks; openStart/openID let the kernel hook, which
// runs on other goroutines, see the call in progress.
type actor struct {
	t    *tracer
	name string

	root       span
	waitIn     callKind
	blockedOut callKind
	callsNs    int64

	openStart atomic.Int64
	openID    atomic.Int32
}

// callKind is one sort of call an actor makes out of its body: for a
// stage, waiting for input and blocked on output.
type callKind struct {
	name string
	agg  *agg
	ns   int64
}

func (a *actor) kind(suffix string) callKind {
	name := "stage/" + a.name + "/" + suffix
	return callKind{name: name, agg: a.t.agg(name)}
}

func (t *tracer) newActor(name string) *actor {
	a := &actor{t: t, name: name}
	a.waitIn, a.blockedOut = a.kind("wait_in"), a.kind("blocked_out")
	a.root = span{ID: -1, Name: "stage/" + name + "/body", Parent: -1, Seq: -1}
	t.all = append(t.all, a)
	return a
}

// bind names the UID whose invocations a's goroutine issues.
func (t *tracer) bind(id uid.UID, a *actor) { t.actors[id] = a }

// begin opens the actor's root span; finish closes it.
func (a *actor) begin() {
	a.root.ID = a.t.nextID.Add(1) - 1
	a.root.Start = a.t.now()
}

func (a *actor) finish() {
	a.root.End = a.t.now()
	a.root.Self = a.root.End - a.root.Start - a.callsNs
	a.t.keep(a.root)
}

// call times one call out of the actor's body.
func (a *actor) call(k *callKind, seq int64, fn func()) {
	if !a.t.armed.Load() || a.root.ID < 0 {
		fn()
		return
	}
	id := a.t.nextID.Add(1) - 1
	start := a.t.now()
	a.openID.Store(id)
	a.openStart.Store(start)
	fn()
	a.openStart.Store(0)
	end := a.t.now()
	k.ns += end - start
	a.callsNs += end - start
	k.agg.observe(end - start)
	a.t.keep(span{ID: id, Name: k.name, Start: start, End: end, Parent: a.root.ID, Seq: seq})
}

// tracedReader and tracedWriter stand between a body and its ports.
type tracedReader struct {
	r   transput.ItemReader
	a   *actor
	seq *int64
}

func (t tracedReader) Next() (item []byte, err error) {
	t.a.call(&t.a.waitIn, *t.seq, func() { item, err = t.r.Next() })
	*t.seq++
	return item, err
}

// Cancel forwards a body's early exit, as the builder's own reader
// wrapper does.
func (t tracedReader) Cancel(msg string) {
	if c, ok := t.r.(interface{ Cancel(string) }); ok {
		c.Cancel(msg)
	}
}

type tracedWriter struct {
	w   transput.ItemWriter
	a   *actor
	seq *int64
}

func (t tracedWriter) Put(item []byte) (err error) {
	t.a.call(&t.a.blockedOut, *t.seq, func() { err = t.w.Put(item) })
	*t.seq++
	return err
}

func (t tracedWriter) PutOwned(item []byte) (err error) {
	t.a.call(&t.a.blockedOut, *t.seq, func() { err = transput.PutOwned(t.w, item) })
	*t.seq++
	return err
}

func (t tracedWriter) Close() error                   { return t.w.Close() }
func (t tracedWriter) CloseWithError(err error) error { return t.w.CloseWithError(err) }

// traceBody wraps a filter body: its readers and writers are timed and
// the whole run is the actor's root span.
func (a *actor) traceBody(body transput.Body) transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		tin := make([]transput.ItemReader, len(ins))
		for i, r := range ins {
			tin[i] = tracedReader{r, a, new(int64)}
		}
		tout := make([]transput.ItemWriter, len(outs))
		for i, w := range outs {
			tout[i] = tracedWriter{w, a, new(int64)}
		}
		a.begin()
		defer a.finish()
		return body(tin, tout)
	}
}

// kernelHook is the kernel.Config.Trace function: one span per
// completed invocation, by op and node pair.  An invocation issued
// while its invoker's actor sits in a port call, and answered before
// that call returns, is that call's child.
func (t *tracer) kernelHook(ev kernel.TraceEvent) {
	if !t.armed.Load() {
		return
	}
	id := t.nextID.Add(1) - 1
	start := int64(ev.Start.Sub(t.base))
	ns := int64(ev.Elapsed)
	h := t.hop(hopKey{ev.Op, ev.FromNode, ev.ToNode})
	h.agg.observe(ns)
	a := t.actors[ev.From]
	parent := int32(-1)
	if a != nil {
		if open := a.openStart.Load(); open != 0 && open <= start {
			parent = a.openID.Load()
		}
	}
	if dataOp(ev.Op) {
		t.invokes.Add(1)
		t.invokeNs.Add(ns)
		if a != nil && (parent >= 0) == (t.nest != inBody) {
			t.placedNs.Add(ns)
		}
	}
	t.keep(span{ID: id, Name: h.name, Start: start, End: start + ns, Parent: parent, Seq: -1})
}

// tracedLink decorates the kernel's link: one span per cross-node
// Transmit.  Kind, Nodes, Close and BindMetrics forward, so the kernel
// and Options.Transport see the link they asked for.
type tracedLink struct {
	netsim.Link
	t *tracer
}

func (l tracedLink) BindMetrics(m *metrics.Set) {
	if b, ok := l.Link.(netsim.MetricsBinder); ok {
		b.BindMetrics(m)
	}
}

func (l tracedLink) Transmit(a, b netsim.NodeID, payload any) (any, int64, error) {
	if a == b || !l.t.armed.Load() {
		return l.Link.Transmit(a, b, payload)
	}
	id := l.t.nextID.Add(1) - 1
	start := l.t.now()
	v, n, err := l.Link.Transmit(a, b, payload)
	end := l.t.now()
	h := l.t.hop(hopKey{"", a, b})
	h.agg.observe(end - start)
	// The kernel stamps an invocation after its request has crossed and
	// before its reply does, so only reply crossings lie inside the
	// invocation's span.  Control-plane crossings belong to no data
	// invocation and stay out of the ledger.
	switch payload.(type) {
	case *transput.TransferRequest, *transput.DeliverRequest:
		l.t.outsideLinkNs.Add(end - start)
	case *transput.TransferReply, *transput.DeliverReply:
		l.t.insideLinkNs.Add(end - start)
	}
	l.t.keep(span{ID: id, Name: h.name, Start: start, End: end, Parent: -1, Seq: -1})
	return v, n, err
}

// nesting says where a workload's data invocations sit relative to its
// actors, which decides what their time is taken out of.
type nesting int

const (
	// inPort: the actor's port call issues the invocation and waits for
	// it (stop-and-wait pipelines).
	inPort nesting = iota
	// inBody: the actor invokes directly, outside any call (gateway-mux's
	// pump).
	inBody
	// inBridge: the actor's call is Peer.Invoke, a transport call with
	// the server kernel's invocation inside it and no netsim.Link to
	// decorate (bridge-echo).  The call's self time is the link row; the
	// port row is empty.
	inBridge
	// overlapped: the port keeps invocations in flight from helper
	// goroutines (Window > 1 or Prefetch > 0), so they run beside the
	// actors instead of nesting in them.
	overlapped
)

// ledger is one datum's journey by layer: where the time of the
// workload's actors went, per item.  Every actor lives for the whole
// timed run, so the rows are set against actors × wall time per item.
// The body row is measured on the actor; the port row (inBody: the body
// row; inBridge: the link row) is what is left of the actor's calls
// once every data invocation and request crossing is taken out; the
// invoke row holds only the invocations the hook found where the
// nesting puts them.  The residual is the base minus the rows: the
// actors' start and exit skew, plus UnplacedUs — invocation time the
// kernel reported but no actor was seen waiting for, which would
// otherwise hide in the row obtained by subtraction.  On an overlapped
// workload the invoke and link rows are reported but left out of the
// sum, and the port row keeps the whole of every port call.
type ledger struct {
	Actors        int     `json:"actors"`
	WallUsPerItem float64 `json:"wall_us_per_item"`
	BodyUs        float64 `json:"body_self_us_per_item"`
	PortUs        float64 `json:"port_self_us_per_item"`
	InvokeUs      float64 `json:"invoke_self_us_per_item"`
	LinkUs        float64 `json:"link_self_us_per_item"`
	UnplacedUs    float64 `json:"unplaced_invoke_us_per_item"`
	Overlapped    bool    `json:"overlapped"`
	ResidualShare float64 `json:"residual_share"`
}

// ledgerOf reconciles the tracer's totals with the wall time of the
// traced repetition.
func (t *tracer) ledgerOf(items int, wall time.Duration) ledger {
	n := float64(items)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	var bodyNs, callsNs int64
	for _, a := range t.all {
		bodyNs += (a.root.End - a.root.Start) - a.callsNs
		callsNs += a.callsNs
	}
	invoke, placed := t.invokeNs.Load(), t.placedNs.Load()
	inside, outside := t.insideLinkNs.Load(), t.outsideLinkNs.Load()
	invokeSelf, linkNs := placed-inside, inside+outside
	switch t.nest {
	case inPort:
		callsNs -= invoke + outside
	case inBody:
		bodyNs -= invoke + outside
	case inBridge:
		linkNs, callsNs = callsNs-invoke, 0
	case overlapped:
		invokeSelf, placed = invoke-inside, invoke
	}
	l := ledger{
		Actors:        len(t.all),
		WallUsPerItem: float64(wall.Nanoseconds()) / 1e3 / n,
		BodyUs:        us(bodyNs),
		PortUs:        us(callsNs),
		InvokeUs:      us(invokeSelf),
		LinkUs:        us(linkNs),
		UnplacedUs:    us(invoke - placed),
		Overlapped:    t.nest == overlapped,
	}
	sum := l.BodyUs + l.PortUs
	if !l.Overlapped {
		sum += l.InvokeUs + l.LinkUs
	}
	l.ResidualShare = 1 - sum/(float64(l.Actors)*l.WallUsPerItem)
	return l
}

// opP50 is the median round trip, in µs, of the invocations of one op
// across every node pair.
func (t *tracer) opP50(op string) float64 {
	return t.mergedQuantile("invoke/"+op+"/", 0.5) / 1e3
}

func (t *tracer) mergedQuantile(prefix string, p float64) float64 {
	var h histogram
	t.aggMu.Lock()
	for name, a := range t.aggs {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			a.mu.Lock()
			h.merge(&a.hist)
			a.mu.Unlock()
		}
	}
	t.aggMu.Unlock()
	return h.quantile(p)
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Items      int                `json:"items"`
	Ledger     ledger             `json:"ledger"`
	Histograms map[string]aggJSON `json:"histograms"`
	SpansSeen  int32              `json:"spans_seen"`
	Spans      []span             `json:"spans"`
}

type aggJSON struct {
	N       int64   `json:"n"`
	TotalMs float64 `json:"total_ms"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
}

// fillSelf sets Self on every kept span but the actors' roots: a
// root's children are mostly beyond the kept sample, so finish set its
// Self from the actor's totals.
func (t *tracer) fillSelf() {
	children := make(map[int32][]span)
	for _, s := range t.kept {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	roots := make(map[int32]bool)
	for _, a := range t.all {
		roots[a.root.ID] = true
	}
	for i, s := range t.kept {
		if !roots[s.ID] {
			t.kept[i].Self = selfTime(s, children[s.ID])
		}
	}
}

func (t *tracer) write(dir, workload string, seed int64, items int, l ledger) error {
	f := traceFile{Workload: workload, Seed: seed, Items: items, Ledger: l,
		Histograms: make(map[string]aggJSON), SpansSeen: t.nextID.Load()}
	for name, a := range t.aggs {
		f.Histograms[name] = aggJSON{N: a.hist.n, TotalMs: float64(a.hist.sum) / 1e6,
			P50Us: a.hist.quantile(0.5) / 1e3, P99Us: a.hist.quantile(0.99) / 1e3}
	}
	sort.Slice(t.kept, func(i, j int) bool { return t.kept[i].ID < t.kept[j].ID })
	t.fillSelf()
	f.Spans = t.kept
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}
