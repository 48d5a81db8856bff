package transput

// The pipeline builder.  A pipeline is one chain of elements — source,
// filters, sink, every user body adapted to Body at BuildPipeline's door —
// and one walk wires it under any discipline.  A link between neighbours
// has a width (the shard count of its sharded side, 1 otherwise) and a
// direction, and the direction is the discipline: which side is passive.
//
//	            declares (passive)     constructs (active)      walk         the link is
//	read-only   upstream: OutPort      downstream: InPort       head → tail  the upstream's channels
//	write-only  downstream: WOInPort   upstream: Pusher         tail → head  the downstream's channels
//	buffered    neither                both: Pusher and InPort  head → tail  width PassiveBuffer Ejects
//
// The passive end is built first because the active end needs its UID
// (and, in capability mode, its channel UID); write-only is read-only with
// the initiative reversed (§5), and buffered is their composition through
// a passive buffer (Figure 1).  Shard resolution, the body wrap, the port
// settings, the inventory and the error exit are written once, in wire.

import (
	"errors"
	"fmt"
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

// Filter names a single-input single-output stage body for linear
// pipelines.  Multi-stream topologies (Figures 3 and 4) are assembled
// from the stage types directly; see the reports example.
type Filter struct {
	Name string
	Body Body
	// Shards overrides Options.Shards for this filter: >1 replicates
	// the body across that many shard Ejects, 1 forces sequential, 0
	// inherits the pipeline default.  Shard a filter only if its body
	// is per-item (each output a function of the current input);
	// stateful bodies (sort, uniq, wc) compute per-shard results.
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
	// (Pusher) in flight from as many helper goroutines.
	Window int
	// Shards is the default replication degree for every filter body
	// (<=1 means sequential); Filter.Shards overrides per filter.
	// Adjacent sharded filters must agree on the count (their links
	// are wired shard-to-shard); results are merged back into the
	// sequential order at each fan-in.
	Shards int
	// Anticipation bounds each stage's internal buffer: the OutPort
	// buffer in read-only mode, the WOInPort buffer in write-only
	// mode.  0 means DefaultCapacity; negative means minimal
	// (synchronous handoff / single item).
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
	// (all shards of a filter share its node) and the buffer index for
	// RoleBuffer, 0 otherwise.
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

// element is one stage of the chain the walk wires: the source, a filter
// or the sink, or a fusion group standing in for several of them.
type element struct {
	role   Role
	name   string
	body   Body
	shards int // 1 is one sequential Eject; P > 1 a row of P shard Ejects
	node   netsim.NodeID
	noFuse bool // Filter.NoFuse
	fused  bool // a fusion group: its Eject gets the fused worker pool
}

// sourceAsBody adapts a SourceFunc to the Body every element carries.
func sourceAsBody(src SourceFunc) Body {
	return func(_ []ItemReader, outs []ItemWriter) error { return src(outs[0]) }
}

// sinkAsBody adapts a SinkFunc dually.
func sinkAsBody(sink SinkFunc) Body {
	return func(ins []ItemReader, _ []ItemWriter) error { return sink(ins[0]) }
}

// newChain turns the user's pipeline into the chain, resolving each
// filter's effective shard count and every element's node.  Adjacent
// sharded filters with unequal counts are rejected: their link is wired
// shard-to-shard, so the rows must align.
func newChain(src SourceFunc, fs []Filter, sink SinkFunc, opt Options) ([]element, error) {
	chain := make([]element, 0, len(fs)+2)
	chain = append(chain, element{
		role: RoleSource, name: "source", body: sourceAsBody(src),
		shards: 1, node: opt.node(RoleSource, 0),
	})
	for i, f := range fs {
		n := f.Shards
		if n == 0 {
			n = opt.Shards
		}
		n = max(n, 1)
		if prev := chain[i].shards; n > 1 && prev > 1 && n != prev {
			return nil, fmt.Errorf("transput: adjacent filters %d and %d have unequal shard counts %d and %d; align them or insert a sequential filter between", i-1, i, prev, n)
		}
		chain = append(chain, element{
			role: RoleFilter, name: f.Name, body: f.Body,
			shards: n, node: opt.node(RoleFilter, i), noFuse: f.NoFuse,
		})
	}
	chain = append(chain, element{
		role: RoleSink, name: "sink", body: sinkAsBody(sink),
		shards: 1, node: opt.node(RoleSink, 0),
	})
	return chain, nil
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

// Pipeline is a built, runnable pipeline and its Eject inventory.
type Pipeline struct {
	K          *kernel.Kernel
	Discipline Discipline

	SourceUID  uid.UID
	FilterUIDs []uid.UID
	SinkUID    uid.UID
	BufferUIDs []uid.UID

	// ShardUIDs groups the filter Ejects by filter index: one UID for
	// a sequential filter, Shards UIDs for a sharded one.
	ShardUIDs [][]uid.UID
	// ShardCounts records the effective shard count per filter.
	ShardCounts []int

	// LogicalStages is the user's chain length (source + filters +
	// sink) before fusion; FusionGroups and FusedStages record how
	// much of it the fusion pass collapsed (0 with Fusion off).
	LogicalStages int
	FusionGroups  int
	FusedStages   int

	shardLoads [][]*atomic.Int64
	slabs      []*wire.Slab

	starters []*Stage
	sink     *Stage
	stageErr []func() error
	allUIDs  []uid.UID
}

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

// Wait blocks until the sink has consumed the whole stream and
// returns the pipeline's error, preferring the originating stage's
// error over the sink's derived abort.
func (p *Pipeline) Wait() error {
	<-p.sink.Done()
	serr := p.sink.Err()
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
func (p *Pipeline) frameSlab(met *metrics.Set, chain []element) *wire.Slab {
	for _, e := range chain {
		if e.shards > 1 {
			s := wire.NewSlab(met, 0)
			p.slabs = append(p.slabs, s)
			return s
		}
	}
	return nil
}

// BuildPipeline wires src | filters... | sink under the given
// discipline and returns the (not yet started) pipeline.  When
// opt.Fusion is on, the fusion pass first collapses adjacent
// co-located sequential elements of the chain (see fusion.go); the walk
// then wires the reduced chain exactly as it would any other.  A build
// that fails leaves nothing behind: whatever it had bound is destroyed.
func BuildPipeline(k *kernel.Kernel, d Discipline, src SourceFunc, fs []Filter, sink SinkFunc, opt Options) (*Pipeline, error) {
	if err := opt.Transport.check(k); err != nil {
		return nil, err
	}
	if d != ReadOnly && d != WriteOnly && d != Buffered {
		return nil, fmt.Errorf("transput: unknown discipline %v", d)
	}
	chain, err := newChain(src, fs, sink, opt)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{K: k, Discipline: d, LogicalStages: len(chain)}
	chain, p.FusionGroups, p.FusedStages = fuseChain(d, chain, opt.Fusion)
	if err := p.wire(chain, opt); err != nil {
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

// wire is the walk.  Link i joins chain[i] to chain[i+1].  Each step
// builds one element — a sequential Eject attached to its whole inbound
// and outbound links, or a row of shard Ejects each attached to its own
// lane of both — and leaves behind the link the next step attaches to:
// the channels the element declared, or (buffered) the buffers it pushes
// into.  Read-only (Figure 2) and buffered (Figure 1 inside Eden: 2n+3
// Ejects, 2n+2 invocations per datum) walk head to tail; write-only (§5)
// walks tail to head.  On error the caller destroys what was bound.
func (p *Pipeline) wire(chain []element, opt Options) error {
	k, d := p.K, p.Discipline
	met := k.Metrics()
	slab := p.frameSlab(met, chain)
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
	last := len(chain) - 1
	// width of link i: the shard count of its sharded side, 1 when both
	// sides are sequential, 0 beyond the chain's ends.
	width := func(i int) int {
		if i < 0 || i >= last {
			return 0
		}
		return max(chain[i].shards, chain[i+1].shards)
	}
	p.ShardUIDs = make([][]uid.UID, last-1)
	p.ShardCounts = make([]int, last-1)
	p.shardLoads = make([][]*atomic.Int64, last-1)

	var made []endpoint // the link the previous step left for this one
	for step := range chain {
		i := step
		if !pull {
			i = last - step
		}
		e := chain[i]
		win, wout := width(i-1), width(i)
		up, down := made, []endpoint(nil)
		switch d {
		case WriteOnly:
			up, down = nil, made
		case Buffered:
			var err error
			if down, err = p.buffers(i, wout, opt); err != nil {
				return err
			}
		}
		if e.role == RoleFilter {
			p.ShardUIDs[i-1] = make([]uid.UID, e.shards)
			p.ShardCounts[i-1] = e.shards
			if e.shards > 1 {
				p.shardLoads[i-1] = make([]*atomic.Int64, e.shards)
			}
		}
		var poolWorkers int
		var poolPinned bool
		if e.fused {
			poolWorkers, poolPinned = fusedPoolWorkers(opt), fusedPoolPinned()
		}

		var declared []endpoint
		for j := 0; j < e.shards; j++ {
			id := k.NewUID()
			name := e.name
			var body Body
			lup, ldown, nin, nout := up, down, win, wout
			if e.shards > 1 {
				// A shard: frames in on its lane, frames out on its lane.  The
				// shard reader keeps its own detach (detachPayload) because the
				// item it hands the body is the frame with its header stripped.
				p.shardLoads[i-1][j] = new(atomic.Int64)
				name = fmt.Sprintf("%s#%d", e.name, j)
				body = shardBody(met, slab, p.shardLoads[i-1][j], e.body)
				lup, ldown, nin, nout = lane(up, j), lane(down, j), 1, 1
			} else {
				// Sequential: the user body owns what it reads, detached once
				// an item — by the merger (detachPayload) over a wide inbound
				// link, by detachBody over a narrow one; it splits toward a
				// sharded downstream.
				if win > 1 {
					body = mergeBody(met, e.body)
				} else {
					body = detachBody(e.body)
				}
				if wout > 1 {
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
					OutNames:       channelNames("Output", nout),
					Anticipation:   opt.Anticipation,
					CapabilityMode: opt.CapabilityMode,
					LazyStart:      lazy,
					PoolWorkers:    poolWorkers,
					PoolPinned:     poolPinned,
				}, body, ins...)
				for c := 0; c < nout; c++ {
					declared = append(declared, endpoint{id, st.Writer(c).ID()})
				}
			case !pull && e.role != RoleSource: // passive input
				st = NewWOStage(k, WOStageConfig{
					Name:           name,
					InNames:        channelNames("Input", nin),
					Capacity:       opt.Anticipation,
					CapabilityMode: opt.CapabilityMode,
					PoolWorkers:    poolWorkers,
					PoolPinned:     poolPinned,
				}, body, outs...)
				for c := 0; c < nin; c++ {
					declared = append(declared, endpoint{id, st.Reader(c).ID()})
				}
			default: // no passive port: a buffered stage, the write-only source, or the sink's pump
				st = NewConvStage(name, body, ins, outs)
			}
			if err := p.add(e, i-1, j, id, st, lazy); err != nil {
				return err
			}
		}
		made = declared
		if d == Buffered {
			made = down
		}
	}
	for _, row := range p.ShardUIDs {
		p.FilterUIDs = append(p.FilterUIDs, row...)
	}
	return nil
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

// add binds a built stage (lane j of filter fi, when it is a filter) and
// enters it in the inventory.  starters and stageErr are in construction
// order, passive end first: a write-only stage must already be consuming
// when data arrives, and Wait reports the first failed stage in that
// order.  lazy keeps read-only producers out of starters — their first
// invocation starts them — but never the sink, which pumps.
func (p *Pipeline) add(e element, fi, j int, id uid.UID, st *Stage, lazy bool) error {
	if err := p.bind(id, st, e.node); err != nil {
		return err
	}
	switch e.role {
	case RoleSource:
		p.SourceUID = id
	case RoleFilter:
		p.ShardUIDs[fi][j] = id
	case RoleSink:
		p.SinkUID, p.sink = id, st
	}
	if e.role != RoleSink {
		p.stageErr = append(p.stageErr, st.Err)
	}
	if e.role == RoleSink || !lazy {
		p.starters = append(p.starters, st)
	}
	return nil
}

// buffers materialises link i of a buffered pipeline: w PassiveBuffer
// Ejects, one per lane, so the paper's buffer overhead scales with the
// parallelism it feeds.  A buffer's placement index is the running count
// of buffers, in link-then-lane order.
func (p *Pipeline) buffers(link, w int, opt Options) ([]endpoint, error) {
	eps := make([]endpoint, w)
	for j := range eps {
		name := fmt.Sprintf("pipe%d", link)
		if w > 1 {
			name = fmt.Sprintf("pipe%d#%d", link, j)
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
