package transput

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

	// fused marks a filter the fusion pass synthesised from a group of
	// member bodies; the builders give it a pinned worker pool.
	fused bool
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

	// srcFused / sinkFused are set by the fusion pass when the source
	// (read-only) or sink (write-only) was folded into a fusion group,
	// so the builders give that endpoint the fused pool treatment.
	srcFused  bool
	sinkFused bool
}

func (o Options) node(role Role, index int) netsim.NodeID {
	if o.Placement == nil {
		return 0
	}
	return o.Placement(role, index)
}

// shardCounts resolves the effective shard count of every filter.
func shardCounts(fs []Filter, opt Options) []int {
	counts := make([]int, len(fs))
	for i, f := range fs {
		n := f.Shards
		if n == 0 {
			n = opt.Shards
		}
		if n < 1 {
			n = 1
		}
		counts[i] = n
	}
	return counts
}

// validateShards rejects adjacent sharded filters with unequal counts:
// their link is wired shard-to-shard, so the rows must align.
func validateShards(counts []int) error {
	for i := 1; i < len(counts); i++ {
		if counts[i] > 1 && counts[i-1] > 1 && counts[i] != counts[i-1] {
			return fmt.Errorf("transput: adjacent filters %d and %d have unequal shard counts %d and %d; align them or insert a sequential filter between", i-1, i, counts[i-1], counts[i])
		}
	}
	return nil
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

	starters []interface{ Start() }
	sinkDone <-chan struct{}
	sinkErr  func() error
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
	<-p.sinkDone
	serr := p.sinkErr()
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
func (p *Pipeline) frameSlab(met *metrics.Set, counts []int) *wire.Slab {
	for _, c := range counts {
		if c > 1 {
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
// co-located sequential stages (see fusion.go); the per-discipline
// builders then wire the reduced chain exactly as they would any
// other.
func BuildPipeline(k *kernel.Kernel, d Discipline, src SourceFunc, fs []Filter, sink SinkFunc, opt Options) (*Pipeline, error) {
	if err := opt.Transport.check(k); err != nil {
		return nil, err
	}
	logical := len(fs) + 2
	src, fs, sink, opt, fr := fuseChain(d, src, fs, sink, opt)
	var p *Pipeline
	var err error
	switch d {
	case ReadOnly:
		p, err = buildReadOnly(k, src, fs, sink, opt)
	case WriteOnly:
		p, err = buildWriteOnly(k, src, fs, sink, opt)
	case Buffered:
		p, err = buildBuffered(k, src, fs, sink, opt)
	default:
		return nil, fmt.Errorf("transput: unknown discipline %v", d)
	}
	if err != nil {
		return nil, err
	}
	p.LogicalStages = logical
	p.FusionGroups = fr.groups
	p.FusedStages = fr.stages
	if fr.groups > 0 {
		met := k.Metrics()
		met.FusionGroups.Add(int64(fr.groups))
		met.FusedStages.Add(int64(fr.stages))
	}
	return p, nil
}

// addShardRow appends a filter's shard bookkeeping to the pipeline.
func (p *Pipeline) addShardRow(uids []uid.UID, loads []*atomic.Int64, count int) {
	p.ShardUIDs = append(p.ShardUIDs, uids)
	p.ShardCounts = append(p.ShardCounts, count)
	p.shardLoads = append(p.shardLoads, loads)
}

// buildReadOnly realises Figure 2: data pulled end to end by the sink;
// every inter-Eject link is a Transfer invocation.  A sharded filter
// becomes P parallel shard Ejects: the producer upstream of the row
// declares P channels and deals sequence-tagged frames across them,
// and the consumer downstream reassembles the sequential order.
func buildReadOnly(k *kernel.Kernel, src SourceFunc, fs []Filter, sink SinkFunc, opt Options) (*Pipeline, error) {
	met := k.Metrics()
	counts := shardCounts(fs, opt)
	if err := validateShards(counts); err != nil {
		return nil, err
	}
	p := &Pipeline{K: k, Discipline: ReadOnly}
	slab := p.frameSlab(met, counts)
	inCfg := InPortConfig{
		Batch: opt.Batch, Prefetch: opt.Prefetch, Window: opt.Window,
		BatchMin: opt.BatchMin, BatchMax: opt.BatchMax,
	}
	roCfg := func(name string, outs int, fused bool) ROStageConfig {
		cfg := ROStageConfig{
			Name:           name,
			OutNames:       channelNames("Output", outs),
			Anticipation:   opt.Anticipation,
			CapabilityMode: opt.CapabilityMode,
			LazyStart:      opt.LazyStart,
		}
		if fused {
			cfg.PoolWorkers = fusedPoolWorkers(opt)
			cfg.PoolPinned = fusedPoolPinned()
		}
		return cfg
	}
	// width reports the fan-out a producer must declare toward the
	// element after filter i (the sink is sequential).
	width := func(i int) int {
		if i < len(fs) {
			return counts[i]
		}
		return 1
	}

	// Source.
	srcUID := k.NewUID()
	srcBody := func(_ []ItemReader, outs []ItemWriter) error {
		return src(outs[0])
	}
	if width(0) > 1 {
		srcBody = splitBody(met, slab, srcBody)
	}
	srcStage := NewROStage(k, roCfg("source", width(0), opt.srcFused), srcBody)
	if err := k.CreateWithUID(srcUID, srcStage, opt.node(RoleSource, 0)); err != nil {
		return nil, err
	}
	p.SourceUID = srcUID
	p.allUIDs = append(p.allUIDs, srcUID)
	p.stageErr = append(p.stageErr, srcStage.Err)
	if !opt.LazyStart {
		p.starters = append(p.starters, srcStage)
	}

	prev := make([]endpoint, width(0))
	for j := range prev {
		prev[j] = endpoint{srcUID, srcStage.Writer(j).ID()}
	}

	// Filters.
	for i, f := range fs {
		if counts[i] > 1 {
			// Sharded row: one stage Eject per shard, each on its own
			// aligned link.
			P := counts[i]
			uids := make([]uid.UID, P)
			loads := make([]*atomic.Int64, P)
			next := make([]endpoint, P)
			for j := 0; j < P; j++ {
				fUID := k.NewUID()
				in := NewInPort(k, fUID, prev[j].u, prev[j].c, inCfg)
				loads[j] = new(atomic.Int64)
				st := NewROStage(k, roCfg(fmt.Sprintf("%s#%d", f.Name, j), 1, false),
					shardBody(met, slab, loads[j], f.Body), in)
				if err := k.CreateWithUID(fUID, st, opt.node(RoleFilter, i)); err != nil {
					return nil, err
				}
				uids[j] = fUID
				p.FilterUIDs = append(p.FilterUIDs, fUID)
				p.allUIDs = append(p.allUIDs, fUID)
				p.stageErr = append(p.stageErr, st.Err)
				if !opt.LazyStart {
					p.starters = append(p.starters, st)
				}
				next[j] = endpoint{fUID, st.Writer(0).ID()}
			}
			p.addShardRow(uids, loads, P)
			prev = next
			continue
		}
		// Sequential filter: merges a sharded upstream, splits toward a
		// sharded downstream.
		fUID := k.NewUID()
		body := detachBody(f.Body)
		if len(prev) > 1 {
			body = mergeBody(met, body)
		}
		if width(i+1) > 1 {
			body = splitBody(met, slab, body)
		}
		ins := make([]ItemReader, len(prev))
		for j := range prev {
			ins[j] = NewInPort(k, fUID, prev[j].u, prev[j].c, inCfg)
		}
		st := NewROStage(k, roCfg(f.Name, width(i+1), f.fused), body, ins...)
		if err := k.CreateWithUID(fUID, st, opt.node(RoleFilter, i)); err != nil {
			return nil, err
		}
		p.FilterUIDs = append(p.FilterUIDs, fUID)
		p.allUIDs = append(p.allUIDs, fUID)
		p.stageErr = append(p.stageErr, st.Err)
		if !opt.LazyStart {
			p.starters = append(p.starters, st)
		}
		p.addShardRow([]uid.UID{fUID}, nil, 1)
		prev = make([]endpoint, width(i+1))
		for j := range prev {
			prev[j] = endpoint{fUID, st.Writer(j).ID()}
		}
	}

	// Sink.
	sinkUID := k.NewUID()
	ins := make([]ItemReader, len(prev))
	for j := range prev {
		ins[j] = NewInPort(k, sinkUID, prev[j].u, prev[j].c, inCfg)
	}
	sinkBody := func(ins []ItemReader) error {
		return sink(detachReader{ins[0]})
	}
	if len(prev) > 1 {
		sinkBody = func(ins []ItemReader) error {
			return sink(newShardMerger(met, ins))
		}
	}
	se := NewSinkEject("sink", sinkBody, ins...)
	if err := k.CreateWithUID(sinkUID, se, opt.node(RoleSink, 0)); err != nil {
		return nil, err
	}
	p.SinkUID = sinkUID
	p.allUIDs = append(p.allUIDs, sinkUID)
	p.starters = append(p.starters, se)
	p.sinkDone = se.Done()
	p.sinkErr = se.Err
	return p, nil
}

// buildWriteOnly realises the §5 dual: data pushed end to end by the
// source; every link is a Deliver invocation.  Stages are wired tail
// first because each needs its successor's UID (and, in capability
// mode, channel UID).  A sharded row's consumer declares one input
// channel per shard and merges; its producer deals frames across the
// row's channels.
func buildWriteOnly(k *kernel.Kernel, src SourceFunc, fs []Filter, sink SinkFunc, opt Options) (*Pipeline, error) {
	met := k.Metrics()
	counts := shardCounts(fs, opt)
	if err := validateShards(counts); err != nil {
		return nil, err
	}
	p := &Pipeline{K: k, Discipline: WriteOnly}
	slab := p.frameSlab(met, counts)
	outCfg := PusherConfig{
		Batch: opt.Batch, Window: opt.Window,
		BatchMin: opt.BatchMin, BatchMax: opt.BatchMax,
	}
	woCfg := func(name string, ins int, fused bool) WOStageConfig {
		cfg := WOStageConfig{
			Name:           name,
			InNames:        channelNames("Input", ins),
			Capacity:       opt.Anticipation,
			CapabilityMode: opt.CapabilityMode,
		}
		if fused {
			cfg.PoolWorkers = fusedPoolWorkers(opt)
			cfg.PoolPinned = fusedPoolPinned()
		}
		return cfg
	}
	// upWidth reports the fan-in an element must declare toward the
	// element before filter i (the source is sequential).
	upWidth := func(i int) int {
		if i > 0 {
			return counts[i-1]
		}
		return 1
	}

	// Sink.
	sinkUID := k.NewUID()
	lastP := upWidth(len(fs))
	sinkBody := func(ins []ItemReader, _ []ItemWriter) error {
		return sink(detachReader{ins[0]})
	}
	if lastP > 1 {
		sinkBody = mergeBody(met, sinkBody)
	}
	sinkStage := NewWOStage(k, woCfg("sink", lastP, opt.sinkFused), sinkBody)
	if err := k.CreateWithUID(sinkUID, sinkStage, opt.node(RoleSink, 0)); err != nil {
		return nil, err
	}
	p.SinkUID = sinkUID
	p.allUIDs = append(p.allUIDs, sinkUID)
	p.starters = append(p.starters, sinkStage)
	p.sinkDone = sinkStage.Done()
	p.sinkErr = sinkStage.Err

	next := make([]endpoint, lastP)
	for j := range next {
		next[j] = endpoint{sinkUID, sinkStage.Reader(j).ID()}
	}
	shardRows := make([][]uid.UID, len(fs))
	shardLoads := make([][]*atomic.Int64, len(fs))

	// Filters, tail to head.
	for i := len(fs) - 1; i >= 0; i-- {
		f := fs[i]
		if counts[i] > 1 {
			P := counts[i]
			uids := make([]uid.UID, P)
			loads := make([]*atomic.Int64, P)
			row := make([]endpoint, P)
			rowUIDs := make([]uid.UID, 0, P)
			for j := 0; j < P; j++ {
				fUID := k.NewUID()
				out := NewPusher(k, fUID, next[j].u, next[j].c, outCfg)
				loads[j] = new(atomic.Int64)
				st := NewWOStage(k, woCfg(fmt.Sprintf("%s#%d", f.Name, j), 1, false),
					shardBody(met, slab, loads[j], f.Body), out)
				if err := k.CreateWithUID(fUID, st, opt.node(RoleFilter, i)); err != nil {
					return nil, err
				}
				uids[j] = fUID
				rowUIDs = append(rowUIDs, fUID)
				p.allUIDs = append(p.allUIDs, fUID)
				p.stageErr = append(p.stageErr, st.Err)
				p.starters = append(p.starters, st)
				row[j] = endpoint{fUID, st.Reader(0).ID()}
			}
			p.FilterUIDs = append(rowUIDs, p.FilterUIDs...)
			shardRows[i] = uids
			shardLoads[i] = loads
			next = row
			continue
		}
		fUID := k.NewUID()
		body := detachBody(f.Body)
		outs := make([]ItemWriter, len(next))
		for j := range next {
			outs[j] = NewPusher(k, fUID, next[j].u, next[j].c, outCfg)
		}
		if len(next) > 1 {
			body = splitBody(met, slab, body)
		}
		inW := upWidth(i)
		if inW > 1 {
			body = mergeBody(met, body)
		}
		st := NewWOStage(k, woCfg(f.Name, inW, f.fused), body, outs...)
		if err := k.CreateWithUID(fUID, st, opt.node(RoleFilter, i)); err != nil {
			return nil, err
		}
		p.FilterUIDs = append([]uid.UID{fUID}, p.FilterUIDs...)
		p.allUIDs = append(p.allUIDs, fUID)
		p.stageErr = append(p.stageErr, st.Err)
		p.starters = append(p.starters, st)
		shardRows[i] = []uid.UID{fUID}
		next = make([]endpoint, inW)
		for j := range next {
			next[j] = endpoint{fUID, st.Reader(j).ID()}
		}
	}
	for i := range fs {
		p.addShardRow(shardRows[i], shardLoads[i], counts[i])
	}

	// Source: an Eject with active output only.
	srcUID := k.NewUID()
	outs := make([]ItemWriter, len(next))
	for j := range next {
		outs[j] = NewPusher(k, srcUID, next[j].u, next[j].c, outCfg)
	}
	srcBody := func(_ []ItemReader, outs []ItemWriter) error {
		return src(outs[0])
	}
	if len(next) > 1 {
		srcBody = splitBody(met, slab, srcBody)
	}
	srcStage := NewConvStage("source", srcBody, nil, outs)
	if err := k.CreateWithUID(srcUID, srcStage, opt.node(RoleSource, 0)); err != nil {
		return nil, err
	}
	p.SourceUID = srcUID
	p.allUIDs = append(p.allUIDs, srcUID)
	p.stageErr = append(p.stageErr, srcStage.Err)
	p.starters = append(p.starters, srcStage)
	return p, nil
}

// buildBuffered realises Figure 1 inside Eden: every stage performs
// active input and active output, with a PassiveBuffer Eject between
// each pair — 2n+3 Ejects and 2n+2 invocations per datum in the
// sequential case.  A sharded link gets one buffer per shard, so the
// paper's buffer overhead scales with the parallelism it feeds.
func buildBuffered(k *kernel.Kernel, src SourceFunc, fs []Filter, sink SinkFunc, opt Options) (*Pipeline, error) {
	met := k.Metrics()
	counts := shardCounts(fs, opt)
	if err := validateShards(counts); err != nil {
		return nil, err
	}
	p := &Pipeline{K: k, Discipline: Buffered}
	slab := p.frameSlab(met, counts)
	inCfg := InPortConfig{
		Batch: opt.Batch, Prefetch: opt.Prefetch, Window: opt.Window,
		BatchMin: opt.BatchMin, BatchMax: opt.BatchMax,
	}
	outCfg := PusherConfig{
		Batch: opt.Batch, Window: opt.Window,
		BatchMin: opt.BatchMin, BatchMax: opt.BatchMax,
	}

	// Link i sits between element i and i+1 (elements: source, the
	// filters, sink); its width is the shard count of its sharded
	// side, 1 when both sides are sequential.
	n := len(fs)
	linkWidth := func(i int) int {
		w := 1
		if i > 0 && counts[i-1] > w {
			w = counts[i-1]
		}
		if i < n && counts[i] > w {
			w = counts[i]
		}
		return w
	}
	bufs := make([][]uid.UID, n+1)
	bufIndex := 0
	for i := range bufs {
		w := linkWidth(i)
		bufs[i] = make([]uid.UID, w)
		for j := 0; j < w; j++ {
			name := fmt.Sprintf("pipe%d", i)
			if w > 1 {
				name = fmt.Sprintf("pipe%d#%d", i, j)
			}
			b := NewPassiveBuffer(k, PassiveBufferConfig{
				Name:     name,
				Capacity: opt.BufferCapacity,
			})
			id, err := k.Create(b, opt.node(RoleBuffer, bufIndex))
			if err != nil {
				return nil, err
			}
			bufs[i][j] = id
			bufIndex++
		}
		p.BufferUIDs = append(p.BufferUIDs, bufs[i]...)
	}
	p.allUIDs = append(p.allUIDs, p.BufferUIDs...)

	// Source pushes into link 0.
	srcUID := k.NewUID()
	srcOuts := make([]ItemWriter, len(bufs[0]))
	for j, b := range bufs[0] {
		srcOuts[j] = NewPusher(k, srcUID, b, Chan(0), outCfg)
	}
	srcBody := func(_ []ItemReader, outs []ItemWriter) error {
		return src(outs[0])
	}
	if len(srcOuts) > 1 {
		srcBody = splitBody(met, slab, srcBody)
	}
	srcStage := NewConvStage("source", srcBody, nil, srcOuts)
	if err := k.CreateWithUID(srcUID, srcStage, opt.node(RoleSource, 0)); err != nil {
		return nil, err
	}
	p.SourceUID = srcUID
	p.allUIDs = append(p.allUIDs, srcUID)
	p.stageErr = append(p.stageErr, srcStage.Err)
	p.starters = append(p.starters, srcStage)

	// Filters: active input from link i, active output to link i+1.
	for i, f := range fs {
		if counts[i] > 1 {
			P := counts[i]
			uids := make([]uid.UID, P)
			loads := make([]*atomic.Int64, P)
			for j := 0; j < P; j++ {
				fUID := k.NewUID()
				in := NewInPort(k, fUID, bufs[i][j], Chan(0), inCfg)
				out := NewPusher(k, fUID, bufs[i+1][j], Chan(0), outCfg)
				loads[j] = new(atomic.Int64)
				st := NewConvStage(fmt.Sprintf("%s#%d", f.Name, j),
					shardBody(met, slab, loads[j], f.Body),
					[]ItemReader{in}, []ItemWriter{out})
				if err := k.CreateWithUID(fUID, st, opt.node(RoleFilter, i)); err != nil {
					return nil, err
				}
				uids[j] = fUID
				p.FilterUIDs = append(p.FilterUIDs, fUID)
				p.allUIDs = append(p.allUIDs, fUID)
				p.stageErr = append(p.stageErr, st.Err)
				p.starters = append(p.starters, st)
			}
			p.addShardRow(uids, loads, P)
			continue
		}
		fUID := k.NewUID()
		body := detachBody(f.Body)
		ins := make([]ItemReader, len(bufs[i]))
		for j, b := range bufs[i] {
			ins[j] = NewInPort(k, fUID, b, Chan(0), inCfg)
		}
		outs := make([]ItemWriter, len(bufs[i+1]))
		for j, b := range bufs[i+1] {
			outs[j] = NewPusher(k, fUID, b, Chan(0), outCfg)
		}
		if len(ins) > 1 {
			body = mergeBody(met, body)
		}
		if len(outs) > 1 {
			body = splitBody(met, slab, body)
		}
		st := NewConvStage(f.Name, body, ins, outs)
		if err := k.CreateWithUID(fUID, st, opt.node(RoleFilter, i)); err != nil {
			return nil, err
		}
		p.FilterUIDs = append(p.FilterUIDs, fUID)
		p.allUIDs = append(p.allUIDs, fUID)
		p.stageErr = append(p.stageErr, st.Err)
		p.starters = append(p.starters, st)
		p.addShardRow([]uid.UID{fUID}, nil, 1)
	}

	// Sink pulls from the last link.
	sinkUID := k.NewUID()
	ins := make([]ItemReader, len(bufs[n]))
	for j, b := range bufs[n] {
		ins[j] = NewInPort(k, sinkUID, b, Chan(0), inCfg)
	}
	sinkBody := func(ins []ItemReader) error {
		return sink(detachReader{ins[0]})
	}
	if len(ins) > 1 {
		sinkBody = func(ins []ItemReader) error {
			return sink(newShardMerger(met, ins))
		}
	}
	se := NewSinkEject("sink", sinkBody, ins...)
	if err := k.CreateWithUID(sinkUID, se, opt.node(RoleSink, 0)); err != nil {
		return nil, err
	}
	p.SinkUID = sinkUID
	p.allUIDs = append(p.allUIDs, sinkUID)
	p.starters = append(p.starters, se)
	p.sinkDone = se.Done()
	p.sinkErr = se.Err
	return p, nil
}
