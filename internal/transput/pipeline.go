package transput

// The pipeline builder.  A pipeline is a graph of elements — every user
// body adapted to Body at the door, a linear pipeline being the path
// source → filters → sink — and one walk wires it under any discipline.
// A link (an edge) has a width (the shard count of its sharded side, 1
// otherwise) and a direction, and the direction is the discipline: which
// side is passive.
//
//	            declares (passive)     constructs (active)      walk         the link is
//	read-only   upstream: OutPort      downstream: InPort       head → tail  the upstream's channels
//	write-only  downstream: WOInPort   upstream: Pusher         tail → head  the downstream's channels
//	buffered    neither                both: Pusher and InPort  head → tail  width PassiveBuffer Ejects
//
//	a node with k edges  outbound (fan-out)                   inbound (fan-in)
//	read-only            k OutPort channels, one an edge      k InPorts, one UID each
//	write-only           k Pushers, one UID each              one channel, Writers k: anonymous
//	buffered             k Pushers into k PassiveBuffers      k InPorts on k PassiveBuffers
//
// The passive end is built first because the active end needs its UID
// (and, in capability mode, its channel UID); write-only is read-only with
// the initiative reversed (§5), and buffered is their composition through
// a passive buffer (Figure 1).  Head → tail is a topological order of the
// graph.  Shard resolution, the body wrap, the port settings, the
// inventory and the error exit are written once, in wire.

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// Discipline selects which corresponding pair of transput primitives a
// pipeline is wired with.
type Discipline int

const (
	// ReadOnly: active input + passive output (Figure 2).  Sinks pull.
	ReadOnly Discipline = iota
	// WriteOnly: active output + passive input (§5, Figure 3).
	// Sources push.
	WriteOnly
	// Buffered: both active primitives with a PassiveBuffer Eject
	// between every pair of stages (Figure 1 transliterated into
	// Eden) — the paper's comparison baseline.
	Buffered
)

// String names the discipline for logs and shell output.
func (d Discipline) String() string {
	switch d {
	case ReadOnly:
		return "read-only"
	case WriteOnly:
		return "write-only"
	case Buffered:
		return "buffered"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// SourceFunc produces the pipeline's data; it writes items and
// returns.  The harness closes the writer.
type SourceFunc func(out ItemWriter) error

// SinkFunc consumes the pipeline's data until io.EOF.
type SinkFunc func(in ItemReader) error

// Filter names a stage body: a filter of a linear pipeline, or any node
// of a Graph, whose edges give the body its ins and outs — Figures 3 and
// 4 are one graph of five (internal/experiments, figures34.go).
type Filter struct {
	Name string
	// Body runs the node.
	Body Body
	// Shards overrides Options.Shards for this filter: >1 replicates
	// the body across that many shard Ejects, 1 forces sequential, 0
	// inherits the pipeline default.  Shard a filter only if its body
	// is per-item (each output a function of the current input);
	// stateful bodies (sort, uniq, wc) compute per-shard results.  A
	// graph's sources and sinks are one Eject each, whatever their
	// Shards.
	Shards int
	// NoFuse pins the filter to its own Eject even under
	// Options.Fusion: its links stay real ports, so they can be
	// redirected, metered or cut independently.
	NoFuse bool
}

// Role identifies a pipeline element for placement decisions.
type Role string

// Placement roles.
const (
	RoleSource Role = "source"
	RoleFilter Role = "filter"
	RoleSink   Role = "sink"
	RoleBuffer Role = "buffer"
)

// Options tunes a pipeline build.
type Options struct {
	// Batch is items per Transfer/Deliver (<=0 means 1, the paper's
	// one-datum-per-invocation accounting).
	Batch int
	// BatchMax > 0 makes every link's batch size adaptive: an AIMD
	// controller per active port tunes the size within
	// [max(1, BatchMin), max(BatchMax, BatchMin)], overriding Batch.
	// BatchMin = BatchMax = 1 pins the controller to the paper's
	// per-datum accounting.  BatchMax = 0 keeps the fixed Batch.
	BatchMin int
	BatchMax int
	// Prefetch is the InPort read-ahead in batches (read-only and
	// buffered disciplines).
	Prefetch int
	// Window is the number of stream invocations kept in flight per
	// link (clamped to [1, MaxWindow]).  At 1 (the default) every link
	// is stop-and-wait, the paper's model; above 1 the active side
	// overlaps round trips, keeping Window Transfers (InPort) or Delivers
	// (Pusher) in flight from as many helper goroutines; a Pusher's
	// producer blocks once Window batches are out.
	Window int
	// Shards is the default replication degree for every filter body
	// (<=1 means sequential); Filter.Shards overrides per filter.
	// Adjacent sharded filters must agree on the count (their links
	// are wired shard-to-shard); results are merged back into the
	// sequential order at each fan-in.
	Shards int
	// Anticipation bounds each stage's internal buffer: the OutPort
	// buffer in read-only mode, the WOInPort buffer in write-only
	// mode.  0 means DefaultCapacity, except on a write-only input fed
	// by windowed Pushers (Window > 1): there it holds every writer's
	// window of its largest batches, max(DefaultCapacity, writers ×
	// Window × batch), where the pull window's read-ahead queue would.
	// Negative means minimal (synchronous handoff / single item).
	Anticipation int
	// BufferCapacity bounds PassiveBuffer Ejects (buffered discipline
	// only); 0 means DefaultCapacity.
	BufferCapacity int
	// CapabilityMode uses UID channel identifiers end to end.
	CapabilityMode bool
	// LazyStart (read-only only) delays every producing stage until
	// it is first invoked, demonstrating §4's laziness.
	LazyStart bool
	// Fusion, when FusionOn, lets BuildPipeline fuse adjacent
	// co-located sequential stages into single Ejects (see fusion.go).
	// The zero value keeps the paper's one-Eject-per-stage wiring, so
	// every published count reproduces exactly.
	Fusion FusionMode
	// Placement maps each element to a simulated node; nil places
	// everything on node 0.  index is the filter index for RoleFilter
	// (all shards of a filter share its node) and 0 for the source and
	// the sink of a pipeline; a graph's node index for a graph node; the
	// buffer index for RoleBuffer.
	Placement func(role Role, index int) netsim.NodeID
	// Transport names the link the kernel's cross-node hops must ride:
	// "" or "netsim" (the in-process simulator), "unix" (Unix domain
	// sockets) or "tcp" (TCP loopback).  The link itself belongs to the
	// kernel (NewTransportKernel builds one); BuildPipeline validates
	// that the kernel's link matches, so a benchmark row labelled
	// "unix" provably ran over real sockets.
	Transport Transport
}

func (o Options) node(role Role, index int) netsim.NodeID {
	if o.Placement == nil {
		return 0
	}
	return o.Placement(role, index)
}

// Graph is a DAG of stage bodies.  A node with no inbound edge is a
// source, one with no outbound edge a sink, any other a filter; a node's
// ins and outs follow its edges' order in Edges.  What an edge becomes
// is the discipline's, as for a pipeline's links (see the table above).
type Graph struct {
	Nodes []Filter
	Edges []Edge
}

// Edge feeds Nodes[From]'s next output into Nodes[To]'s next input.
type Edge struct{ From, To int }

// Outlet, as an Edge's To, leaves that output open for a reader to
// attach later (Pipeline.Outlet).  Only a sequential node of a read-only
// graph has one: elsewhere the open end is a passive input.
const Outlet = -1

// The graphs the walk refuses, each returned inside a *GraphError.
// Sharding stays link-local: a sharded link is a row of lanes, so its
// ends may have no other link on that side, and two sharded ends must
// have as many lanes.
var (
	ErrBadEdge       = errors.New("has an edge to a node it lacks")
	ErrCycle         = errors.New("has a cycle")
	ErrUnlinked      = errors.New("has no edge")
	ErrShardedFan    = errors.New("has a sharded link beside another link on one side")
	ErrUnequalShards = errors.New("has a sharded link between rows of unequal shard counts; align them or put a sequential node between")
	errOutlet        = errors.New("has an outlet, which only a sequential node of a read-only graph may have")
)

// GraphError is a refused build: Err names the rule, Node (if any) the
// node that broke it.
type GraphError struct {
	Node string
	Err  error
}

func (e *GraphError) Error() string {
	if e.Node == "" {
		return "transput: graph " + e.Err.Error()
	}
	return fmt.Sprintf("transput: graph node %q %v", e.Node, e.Err)
}

func (e *GraphError) Unwrap() error { return e.Err }

// element is one node of the graph the walk wires: the source, a filter
// or the sink, or a fusion group standing in for several of them.
type element struct {
	role   Role
	name   string
	body   Body
	shards int // 1 is one sequential Eject; P > 1 a row of P shard Ejects
	node   netsim.NodeID
	noFuse bool // Filter.NoFuse
}

// sourceAsBody adapts a SourceFunc to the Body every element carries.
func sourceAsBody(src SourceFunc) Body {
	return func(_ []ItemReader, outs []ItemWriter) error { return src(outs[0]) }
}

// sinkAsBody adapts a SinkFunc dually.
func sinkAsBody(sink SinkFunc) Body {
	return func(ins []ItemReader, _ []ItemWriter) error { return sink(ins[0]) }
}

// adjacency lists each node's inbound and outbound edge indices, in
// edge order; an outlet is outbound only.
func adjacency(n int, edges []Edge) (in, out [][]int) {
	in, out = make([][]int, n), make([][]int, n)
	for x, e := range edges {
		out[e.From] = append(out[e.From], x)
		if e.To != Outlet {
			in[e.To] = append(in[e.To], x)
		}
	}
	return in, out
}

// topo is Kahn's order, the lowest-numbered ready node first, so a path
// comes out in node order; a cycle leaves its nodes out.
func topo(n int, edges []Edge) []int {
	in, out := adjacency(n, edges)
	indeg := make([]int, n)
	var order []int
	for i := range in {
		if indeg[i] = len(in[i]); indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for h := 0; h < len(order); h++ {
		for _, x := range out[order[h]] {
			if to := edges[x].To; to != Outlet {
				if indeg[to]--; indeg[to] == 0 {
					order = append(order, to)
				}
			}
		}
	}
	return order
}

// newGraph turns the user's graph into elements: each node's role from
// its edges, its effective shard count, and its node from Placement,
// asked at index at(role, i).  It refuses what the walk cannot wire
// under d before anything is bound.
func newGraph(d Discipline, g Graph, opt Options, at func(Role, int) int) ([]element, error) {
	n := len(g.Nodes)
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= n || (e.To < 0 || e.To >= n) && e.To != Outlet {
			return nil, &GraphError{Err: ErrBadEdge}
		}
	}
	if n == 0 {
		return nil, &GraphError{Err: ErrUnlinked}
	}
	if len(topo(n, g.Edges)) < n {
		return nil, &GraphError{Err: ErrCycle}
	}
	in, out := adjacency(n, g.Edges)
	els := make([]element, n)
	for i, f := range g.Nodes {
		role, shards := RoleFilter, 1
		switch {
		case len(in[i]) == 0 && len(out[i]) == 0:
			return nil, &GraphError{Node: f.Name, Err: ErrUnlinked}
		case len(in[i]) == 0:
			role = RoleSource
		case len(out[i]) == 0:
			role = RoleSink
		default:
			shards = f.Shards
			if shards == 0 {
				shards = opt.Shards
			}
			shards = max(shards, 1)
		}
		els[i] = element{
			role: role, name: f.Name, body: f.Body, shards: shards,
			node: opt.node(role, at(role, i)), noFuse: f.NoFuse,
		}
	}
	for _, e := range g.Edges {
		if e.To == Outlet {
			if a := els[e.From]; d != ReadOnly || a.shards > 1 {
				return nil, &GraphError{Node: a.name, Err: errOutlet}
			}
			continue
		}
		a, b := els[e.From], els[e.To]
		switch {
		case a.shards > 1 && b.shards > 1 && a.shards != b.shards:
			return nil, &GraphError{Node: b.name, Err: ErrUnequalShards}
		case max(a.shards, b.shards) > 1 && len(out[e.From]) > 1:
			return nil, &GraphError{Node: a.name, Err: ErrShardedFan}
		case max(a.shards, b.shards) > 1 && len(in[e.To]) > 1:
			return nil, &GraphError{Node: b.name, Err: ErrShardedFan}
		}
	}
	return els, nil
}

// channelNames generates n channel names from a prefix.
func channelNames(prefix string, n int) []string {
	if n <= 1 {
		return []string{prefix}
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

// endpoint is one end of a link: an Eject and a channel on it.
type endpoint struct {
	u uid.UID
	c ChannelID
}

// Pipeline is a built, runnable pipeline or graph and its Eject
// inventory.  A graph's SourceUID and SinkUID are its first source and
// sink in node order.
type Pipeline struct {
	K          *kernel.Kernel
	Discipline Discipline

	SourceUID  uid.UID
	FilterUIDs []uid.UID
	SinkUID    uid.UID
	BufferUIDs []uid.UID

	// ShardUIDs groups the filter Ejects by filter, in node order: one
	// UID for a sequential filter, Shards UIDs for a sharded one.
	ShardUIDs [][]uid.UID
	// ShardCounts records the effective shard count per filter.
	ShardCounts []int

	// LogicalStages is the user's node count (source + filters + sink)
	// before fusion; FusionGroups and FusedStages record how much of it
	// the fusion pass collapsed (0 with Fusion off).
	LogicalStages int
	FusionGroups  int
	FusedStages   int

	shardLoads [][]*atomic.Int64
	slabs      []*wire.Slab
	outlets    []endpoint

	starters []*Stage
	sinks    []*Stage
	stageErr []func() error
	allUIDs  []uid.UID
}

// Outlet returns the graph's i-th outlet in edge order, for any InPort
// to attach to: its Eject and channel (a capability under CapabilityMode).
func (p *Pipeline) Outlet(i int) (uid.UID, ChannelID) { return p.outlets[i].u, p.outlets[i].c }

// Ejects reports how many *physical* Ejects the pipeline comprises.
// With Options.Fusion off this equals the paper's logical accounting —
// n+2 (asymmetric) vs 2n+3 (buffered), each shard its own Eject so a
// fully sharded asymmetric pipeline has n·P+2.  With fusion on it is
// smaller: fused groups occupy one Eject each, and LogicalStages /
// FusedStages / FusionGroups record the logical-to-physical mapping.
func (p *Pipeline) Ejects() int { return len(p.allUIDs) }

// ShardLoads reports, per filter, how many items each shard processed
// (nil for sequential filters).  The splitter deals round-robin, so a
// healthy pipeline shows near-equal loads — the shard-utilization
// signal next to the metric set's window and reorder high-waters.
func (p *Pipeline) ShardLoads() [][]int64 {
	out := make([][]int64, len(p.shardLoads))
	for i, row := range p.shardLoads {
		if row == nil {
			continue
		}
		out[i] = make([]int64, len(row))
		for j, c := range row {
			out[i][j] = c.Load()
		}
	}
	return out
}

// Start sets the pipeline in motion.  In the read-only discipline
// only the sink pump is strictly necessary — everything upstream is
// demand-driven — but non-lazy stages are started too so they can
// anticipate.
func (p *Pipeline) Start() {
	for _, s := range p.starters {
		s.Start()
	}
}

// Wait blocks until every sink has consumed its whole stream and
// returns the pipeline's error — the first failed sink's, preferring
// the originating stage's error over a sink's derived abort.  A graph
// with no sink (only outlets) has nothing to wait on.
func (p *Pipeline) Wait() error {
	var serr error
	for _, s := range p.sinks {
		<-s.Done()
		if serr == nil {
			serr = s.Err()
		}
	}
	if serr == nil {
		return nil
	}
	if errors.Is(serr, ErrAborted) {
		for _, fe := range p.stageErr {
			if e := fe(); e != nil && !errors.Is(e, ErrAborted) {
				return fmt.Errorf("pipeline stage failed: %w", e)
			}
		}
	}
	return serr
}

// Run is Start followed by Wait.
func (p *Pipeline) Run() error {
	p.Start()
	return p.Wait()
}

// Destroy removes every Eject the pipeline created and retires the
// frame slabs, auditing them for leaked views (SlabLeaked).
func (p *Pipeline) Destroy() {
	for _, id := range p.allUIDs {
		_ = p.K.Destroy(id)
	}
	for _, s := range p.slabs {
		s.Close()
	}
	p.slabs = nil
}

// frameSlab lazily creates the pipeline's shared frame arena; sharded
// frames are carved from it and refcounted across links.  Sequential
// pipelines never frame, so they never pay for a slab.
func (p *Pipeline) frameSlab(met *metrics.Set, els []element) *wire.Slab {
	for _, e := range els {
		if e.shards > 1 {
			s := wire.NewSlab(met, 0)
			p.slabs = append(p.slabs, s)
			return s
		}
	}
	return nil
}

// BuildPipeline wires src | filters... | sink under the given
// discipline and returns the (not yet started) pipeline: it is the path
// graph, built by the walk that builds every graph.  When opt.Fusion is
// on, the fusion pass first collapses adjacent co-located sequential
// elements (see fusion.go).  A build that fails leaves nothing behind:
// whatever it had bound is destroyed.
func BuildPipeline(k *kernel.Kernel, d Discipline, src SourceFunc, fs []Filter, sink SinkFunc, opt Options) (*Pipeline, error) {
	nodes := make([]Filter, 0, len(fs)+2)
	nodes = append(nodes, Filter{Name: "source", Body: sourceAsBody(src)})
	nodes = append(nodes, fs...)
	nodes = append(nodes, Filter{Name: "sink", Body: sinkAsBody(sink)})
	edges := make([]Edge, len(nodes)-1)
	for i := range edges {
		edges[i] = Edge{i, i + 1}
	}
	// The path keeps a pipeline's placement indices: filter i is node i+1.
	return buildGraph(k, d, Graph{nodes, edges}, opt, func(r Role, i int) int {
		if r == RoleFilter {
			return i - 1
		}
		return 0
	})
}

// BuildGraph wires g under the given discipline and returns it, not yet
// started; Wait waits for every sink.  A node's Placement index is its
// index in g.Nodes.  A graph the walk cannot wire is refused with a
// *GraphError before anything is bound.
func BuildGraph(k *kernel.Kernel, d Discipline, g Graph, opt Options) (*Pipeline, error) {
	return buildGraph(k, d, g, opt, func(_ Role, i int) int { return i })
}

func buildGraph(k *kernel.Kernel, d Discipline, g Graph, opt Options, at func(Role, int) int) (*Pipeline, error) {
	if err := opt.Transport.check(k); err != nil {
		return nil, err
	}
	if d != ReadOnly && d != WriteOnly && d != Buffered {
		return nil, fmt.Errorf("transput: unknown discipline %v", d)
	}
	els, err := newGraph(d, g, opt, at)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{K: k, Discipline: d, LogicalStages: len(els)}
	els, edges, groups, stages := fuseGraph(d, els, g.Edges, opt.Fusion)
	p.FusionGroups, p.FusedStages = groups, stages
	if err := p.wire(els, edges, opt); err != nil {
		p.Destroy()
		return nil, err
	}
	if p.FusionGroups > 0 {
		met := k.Metrics()
		met.FusionGroups.Add(int64(p.FusionGroups))
		met.FusedStages.Add(int64(p.FusedStages))
	}
	return p, nil
}

// wire is the walk.  Each step builds one element — a sequential Eject
// attached to all of its inbound and outbound links, or a row of shard
// Ejects each attached to its own lane of both — and leaves behind the
// links the later steps attach to: the channels the element declared,
// or (buffered) the buffers it pushes into.  Read-only (Figure 2) and
// buffered (Figure 1 inside Eden: 2n+3 Ejects, 2n+2 invocations per
// datum) walk head to tail; write-only (§5) walks tail to head.  On
// error the caller destroys what was bound.
func (p *Pipeline) wire(els []element, edges []Edge, opt Options) error {
	k, d := p.K, p.Discipline
	met := k.Metrics()
	slab := p.frameSlab(met, els)
	// pull: a link's downstream end is an InPort; push: its upstream end
	// is a Pusher.  An end that is neither is declared by its element.
	pull, push := d != WriteOnly, d != ReadOnly
	lazy := opt.LazyStart && d == ReadOnly // the option is read-only's alone
	inCfg := InPortConfig{
		Batch: opt.Batch, Prefetch: opt.Prefetch, Window: opt.Window,
		BatchMin: opt.BatchMin, BatchMax: opt.BatchMax,
	}
	outCfg := PusherConfig{
		Batch: opt.Batch, Window: opt.Window,
		BatchMin: opt.BatchMin, BatchMax: opt.BatchMax,
	}
	in, out := adjacency(len(els), edges)
	width := func(x int) int {
		w := els[edges[x].From].shards
		if to := edges[x].To; to != Outlet {
			w = max(w, els[to].shards)
		}
		return w
	}
	lanes := func(xs []int) (n int) {
		for _, x := range xs {
			n += width(x)
		}
		return n
	}
	links := make([][]endpoint, len(edges)) // each link's lanes, once its passive end exists
	uids := make([][]uid.UID, len(els))
	loads := make([][]*atomic.Int64, len(els))

	order := topo(len(els), edges)
	if !pull {
		slices.Reverse(order)
	}
	for _, i := range order {
		e := els[i]
		// The links already made: inbound under read-only, outbound under
		// write-only, both under buffered (the buffers made here).
		var up, down []endpoint
		for _, x := range in[i] {
			up = append(up, links[x]...)
		}
		if d == Buffered {
			for _, x := range out[i] {
				var err error
				if links[x], err = p.buffers(x, width(x), opt); err != nil {
					return err
				}
			}
		}
		for _, x := range out[i] {
			down = append(down, links[x]...)
		}
		// The links this element declares: its outputs' channels under
		// read-only, its inputs' under write-only — one channel for all of
		// a fan-in, whose writers merge (§5).
		nin, nout := lanes(in[i]), lanes(out[i])
		writers := 1 // Pushers per declared input channel
		if len(in[i]) > 1 {
			nin, writers = 1, len(in[i])
		}
		if e.shards > 1 {
			loads[i] = make([]*atomic.Int64, e.shards)
		}

		var declared []endpoint
		for j := 0; j < e.shards; j++ {
			id := k.NewUID()
			name := e.name
			var body Body
			lup, ldown, lin, lout := up, down, nin, nout
			if e.shards > 1 {
				// A shard: frames in on its lane, frames out on its lane.  The
				// shard reader keeps its own detach (detachPayload) because the
				// item it hands the body is the frame with its header stripped.
				loads[i][j] = new(atomic.Int64)
				name = fmt.Sprintf("%s#%d", e.name, j)
				body = shardBody(met, slab, loads[i][j], e.body)
				lup, ldown, lin, lout = lane(lup, j), lane(ldown, j), 1, 1
			} else {
				// Sequential: the user body owns what it reads, detached once
				// an item — by the merger (detachPayload) over a wide inbound
				// link, by detachBody over narrow ones; it splits toward a
				// sharded downstream.  A wide link is its ends' only one.
				if lanes(in[i]) > len(in[i]) {
					body = mergeBody(met, e.body)
				} else {
					body = detachBody(e.body)
				}
				if nout > len(out[i]) {
					body = splitBody(met, slab, body)
				}
			}
			ins := make([]ItemReader, len(lup))
			for c, ep := range lup {
				ins[c] = NewInPort(k, id, ep.u, ep.c, inCfg)
			}
			outs := make([]ItemWriter, len(ldown))
			for c, ep := range ldown {
				outs[c] = NewPusher(k, id, ep.u, ep.c, outCfg)
			}

			var st *Stage
			switch {
			case !push && e.role != RoleSink: // passive output
				st = NewROStage(k, ROStageConfig{
					Name:           name,
					OutNames:       channelNames("Output", lout),
					Anticipation:   opt.Anticipation,
					CapabilityMode: opt.CapabilityMode,
					LazyStart:      lazy,
				}, body, ins...)
				for c := 0; c < lout; c++ {
					declared = append(declared, endpoint{id, st.Writer(c).ID()})
				}
			case !pull && e.role != RoleSource: // passive input
				st = NewWOStage(k, WOStageConfig{
					Name:           name,
					InNames:        channelNames("Input", lin),
					Capacity:       opt.inputCapacity(writers),
					Writers:        []int{writers},
					CapabilityMode: opt.CapabilityMode,
				}, body, outs...)
				for c := 0; c < lin; c++ {
					declared = append(declared, endpoint{id, st.Reader(c).ID()})
				}
			default: // no passive port: a buffered stage, a write-only source, or a sink's pump
				st = NewConvStage(name, body, ins, outs)
			}
			if err := p.add(e, id, st, lazy); err != nil {
				return err
			}
			uids[i] = append(uids[i], id)
		}
		// Hand the declared lanes to the links they materialise, in edge
		// order; a write-only fan-in's one channel serves every inbound link.
		if d != Buffered {
			sides := out[i]
			if !pull {
				if sides = in[i]; len(sides) > 1 {
					declared = slices.Repeat(declared, len(sides))
				}
			}
			for _, x := range sides {
				links[x], declared = declared[:width(x)], declared[width(x):]
			}
		}
	}
	for x, e := range edges {
		if e.To == Outlet {
			p.outlets = append(p.outlets, links[x][0])
		}
	}
	for i, e := range els {
		switch {
		case e.role == RoleFilter:
			p.ShardUIDs = append(p.ShardUIDs, uids[i])
			p.ShardCounts = append(p.ShardCounts, e.shards)
			p.shardLoads = append(p.shardLoads, loads[i])
			p.FilterUIDs = append(p.FilterUIDs, uids[i]...)
		case e.role == RoleSource && p.SourceUID.IsNil():
			p.SourceUID = uids[i][0]
		case e.role == RoleSink && p.SinkUID.IsNil():
			p.SinkUID = uids[i][0]
		}
	}
	return nil
}

// inputCapacity is the capacity the walk declares a write-only input
// channel with, fed by writers Pushers.  An explicit Anticipation is
// kept.  Otherwise a windowed link's batches land in the channel, as a
// pull window's land in the InPort's read-ahead queue, so the channel
// holds every writer's whole window of its largest batches: a sink that
// keeps up then grants Window × size, and the gate keeps the window
// open instead of falling to one Deliver at a time.
func (opt Options) inputCapacity(writers int) int {
	window := min(max(opt.Window, 1), MaxWindow)
	if opt.Anticipation != 0 || window == 1 {
		return opt.Anticipation
	}
	batch := max(opt.Batch, 1)
	if opt.BatchMax > 0 {
		batch = max(opt.BatchMax, opt.BatchMin)
	}
	return max(DefaultCapacity, writers*window*batch)
}

// lane is shard j's share of a link its row attaches to (nil stays nil:
// the end the row declares instead).
func lane(link []endpoint, j int) []endpoint {
	if link == nil {
		return nil
	}
	return link[j : j+1]
}

// bind registers an Eject the pipeline owns.
func (p *Pipeline) bind(id uid.UID, e kernel.Eject, node netsim.NodeID) error {
	if err := p.K.CreateWithUID(id, e, node); err != nil {
		return err
	}
	p.allUIDs = append(p.allUIDs, id)
	return nil
}

// add binds a built stage and enters it in the inventory.  starters and
// stageErr are in construction order, passive end first: a write-only
// stage must already be consuming when data arrives, and Wait reports the
// first failed stage in that order.  lazy keeps read-only producers out
// of starters — their first invocation starts them — but never a sink,
// which pumps.
func (p *Pipeline) add(e element, id uid.UID, st *Stage, lazy bool) error {
	if err := p.bind(id, st, e.node); err != nil {
		return err
	}
	if e.role == RoleSink {
		p.sinks = append(p.sinks, st)
	} else {
		p.stageErr = append(p.stageErr, st.Err)
	}
	if e.role == RoleSink || !lazy {
		p.starters = append(p.starters, st)
	}
	return nil
}

// buffers materialises link x of a buffered pipeline: w PassiveBuffer
// Ejects, one per lane, so the paper's buffer overhead scales with the
// parallelism it feeds.  A buffer's placement index is the running count
// of buffers, in the order the walk makes them, link then lane.
func (p *Pipeline) buffers(x, w int, opt Options) ([]endpoint, error) {
	eps := make([]endpoint, w)
	for j := range eps {
		name := fmt.Sprintf("pipe%d", x)
		if w > 1 {
			name = fmt.Sprintf("pipe%d#%d", x, j)
		}
		id := p.K.NewUID()
		b := NewPassiveBuffer(p.K, PassiveBufferConfig{Name: name, Capacity: opt.BufferCapacity})
		if err := p.bind(id, b, opt.node(RoleBuffer, len(p.BufferUIDs))); err != nil {
			return nil, err
		}
		p.BufferUIDs = append(p.BufferUIDs, id)
		eps[j] = endpoint{id, Chan(0)}
	}
	return eps, nil
}
