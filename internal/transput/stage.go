package transput

import (
	"fmt"
	"runtime"
	"sync"

	"asymstream/internal/kernel"
)

// Body is the discipline-neutral code of a stage: it consumes items
// from its input readers (ins[0] is the primary input) and produces
// items on its output writers (outs[0] is the primary output).  The
// same Body runs unchanged under all three disciplines, demonstrating
// the paper's point that the discipline is a property of the
// *inter-Eject interfaces*: "The filter process itself would be
// programmed in the conventional way and make use of the Write
// operations whenever necessary" (§4).
//
// A Body must return when its inputs are exhausted or its outputs
// fail; it need not close its writers — the stage harness does that,
// propagating errors as aborts.
type Body func(ins []ItemReader, outs []ItemWriter) error

// EdenType names used by the stage Ejects.
const (
	TypeROStage   = "transput.ROStage"
	TypeWOStage   = "transput.WOStage"
	TypeConvStage = "transput.ConvStage"
	TypeSink      = "transput.Sink"
)

// stageRun is the harness every stage Eject embeds: the body, the
// streams it runs over, and its lifecycle — run once on its own
// goroutine, keep the result, then end the streams.
type stageRun struct {
	ins    []ItemReader
	outs   []ItemWriter
	body   Body
	pinned bool // lock the body's goroutine to an OS thread

	once  sync.Once
	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error
	done  chan struct{}
}

func newStageRun(body Body, ins []ItemReader, outs []ItemWriter, pinned bool) stageRun {
	return stageRun{ins: ins, outs: outs, body: body, pinned: pinned, done: make(chan struct{})}
}

// Start runs the body (idempotent).  When it returns its result is
// recorded and the streams are ended: outputs closed — as aborts
// carrying the body's error, if it failed — and inputs cancelled, which
// releases any upstream producer, or backlog of slab views, the body
// did not fully drain.
func (r *stageRun) Start() {
	r.once.Do(func() {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer close(r.done)
			if r.pinned {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			err := r.body(r.ins, r.outs)
			r.errMu.Lock()
			r.err = err
			r.errMu.Unlock()
			reason := "stage complete"
			if err != nil {
				reason = err.Error()
			}
			endStreams(r.ins, r.outs, err, reason)
		}()
	})
}

// Done is closed when the body has finished and its streams are ended.
func (r *stageRun) Done() <-chan struct{} { return r.done }

// Err returns the body's result once it has finished.
func (r *stageRun) Err() error {
	r.wg.Wait()
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// OnDeactivate aborts the stage's streams so the body can exit: the
// Eject is going away.  An output that had already ended drops its
// backlog too, which passive output otherwise keeps for a reader to
// drain: no Transfer reaches this instance again, and the backlog's slab
// views would outlive it.
func (r *stageRun) OnDeactivate() {
	endStreams(r.ins, r.outs, errStageDeactivated, errStageDeactivated.Msg)
	for _, w := range r.outs {
		if cw, ok := w.(*ChannelWriter); ok {
			cw.ch.abort(errStageDeactivated, true)
		}
	}
}

// endStreams closes every output — normally, or as an abort carrying
// err — and cancels every input port with reason.
func endStreams(ins []ItemReader, outs []ItemWriter, err error, reason string) {
	for _, w := range outs {
		if err != nil {
			_ = w.CloseWithError(err)
		} else {
			_ = w.Close()
		}
	}
	for _, in := range ins {
		switch p := in.(type) {
		case *InPort:
			p.Cancel(reason)
		case *ChannelReader:
			p.Cancel(reason)
		}
	}
}

// errStageDeactivated aborts the streams of a stage whose Eject is going
// away.  Shared: AbortedError is immutable once published.
var errStageDeactivated = &AbortedError{Msg: "stage deactivated"}

// ROStage is a source or filter Eject in the read-only discipline: it
// performs active input on its InPorts and passive output on its
// OutPort.  Compare Figure 2: "The filters F_i all perform active
// input and passive output."
type ROStage struct {
	name string
	out  *OutPort
	lazy bool
	pool kernel.PoolHint
	stageRun
}

// ROStageConfig parameterises an ROStage.
type ROStageConfig struct {
	// Name is used in diagnostics.
	Name string
	// OutNames lists the output channels to declare; nil means
	// {"Output"}.  Channel numbers are assigned by position.
	OutNames []string
	// Anticipation is the per-channel output buffer capacity: 0 means
	// DefaultCapacity, negative means synchronous (pure laziness).
	Anticipation int
	// CapabilityMode mints UID channel identifiers.
	CapabilityMode bool
	// LazyStart delays running the body until the first invocation
	// arrives (§4's "no computation need be done until the result is
	// requested").  When false the body starts immediately and runs
	// ahead until its output buffers fill (anticipatory computation).
	LazyStart bool
	// PoolWorkers, when >0, caps the stage's kernel worker pool;
	// PoolPinned locks the pool's workers and the body goroutine to OS
	// threads.  The fusion pass sets both on fused groups so a datum
	// runs its whole fused chain to completion on one worker, with no
	// cross-worker mailbox bounce between member stages.
	PoolWorkers int
	PoolPinned  bool
}

// NewROStage builds a read-only stage.  ins are the stage's input
// readers (typically InPorts pulling from upstream Ejects; empty for a
// source).  The stage must then be registered with the kernel by the
// caller; use Start (or the first incoming invocation, in lazy mode)
// to run the body.
func NewROStage(k *kernel.Kernel, cfg ROStageConfig, body Body, ins ...ItemReader) *ROStage {
	outNames := cfg.OutNames
	if len(outNames) == 0 {
		outNames = []string{"Output"}
	}
	port := NewOutPort(k, OutPortConfig{CapabilityMode: cfg.CapabilityMode})
	outs := make([]ItemWriter, len(outNames))
	for i, nm := range outNames {
		outs[i] = port.Declare(nm, ChannelNum(i), cfg.Anticipation)
	}
	return &ROStage{
		name:     cfg.Name,
		out:      port,
		lazy:     cfg.LazyStart,
		pool:     kernel.PoolHint{Workers: cfg.PoolWorkers, Pinned: cfg.PoolPinned},
		stageRun: newStageRun(body, ins, outs, cfg.PoolPinned),
	}
}

// EdenType implements kernel.Eject.
func (s *ROStage) EdenType() string { return TypeROStage }

// PoolHint implements kernel.PoolHinter.
func (s *ROStage) PoolHint() kernel.PoolHint { return s.pool }

// Out returns the stage's OutPort (for channel adverts and laziness
// probes).
func (s *ROStage) Out() *OutPort { return s.out }

// Writer returns the i-th output channel writer (0 = primary); the
// pipeline builder uses its ID to wire capability-mode consumers.
func (s *ROStage) Writer(i int) *ChannelWriter { return s.outs[i].(*ChannelWriter) }

// Serve implements kernel.Eject: Transfer, Channels and Abort go to
// the OutPort; in lazy mode the first invocation of any kind starts
// the body.
func (s *ROStage) Serve(inv *kernel.Invocation) {
	if s.lazy {
		s.Start()
	}
	if !s.out.Serve(inv) {
		inv.Fail(fmt.Errorf("%w: %q on %s stage %q", kernel.ErrNoSuchOperation, inv.Op, "read-only", s.name))
	}
}

// WOStage is a filter or sink Eject in the write-only discipline: it
// performs passive input on its WOInPort and active output on its
// Pushers.  Write-only stages are started eagerly: in the push
// discipline the pipeline is driven by its source, and a stage must
// already be consuming when data arrives.
type WOStage struct {
	name string
	in   *WOInPort
	pool kernel.PoolHint
	stageRun
}

// WOStageConfig parameterises a WOStage.
type WOStageConfig struct {
	Name string
	// InNames lists input channels to declare; nil means {"Input"}.
	InNames []string
	// Capacity bounds each input buffer; 0 means DefaultCapacity.
	Capacity int
	// Writers is the expected fan-in degree per input channel
	// (number of End marks that complete it); nil or missing entries
	// mean 1.
	Writers []int
	// CapabilityMode mints UID channel identifiers.
	CapabilityMode bool
	// PoolWorkers / PoolPinned mirror ROStageConfig: the fusion pass
	// sets them on fused groups (write-only discipline) so the group's
	// worker pool is bounded and core-pinned.
	PoolWorkers int
	PoolPinned  bool
}

// NewWOStage builds a write-only stage.  outs are the stage's output
// writers (typically Pushers to downstream Ejects; empty for a final
// sink that consumes in its body).
func NewWOStage(k *kernel.Kernel, cfg WOStageConfig, body Body, outs ...ItemWriter) *WOStage {
	inNames := cfg.InNames
	if len(inNames) == 0 {
		inNames = []string{"Input"}
	}
	port := NewWOInPort(k, WOInPortConfig{CapabilityMode: cfg.CapabilityMode})
	readers := make([]ItemReader, len(inNames))
	for i, nm := range inNames {
		writers := 1
		if i < len(cfg.Writers) && cfg.Writers[i] > 0 {
			writers = cfg.Writers[i]
		}
		readers[i] = port.Declare(nm, ChannelNum(i), cfg.Capacity, writers)
	}
	return &WOStage{
		name:     cfg.Name,
		in:       port,
		pool:     kernel.PoolHint{Workers: cfg.PoolWorkers, Pinned: cfg.PoolPinned},
		stageRun: newStageRun(body, readers, outs, cfg.PoolPinned),
	}
}

// EdenType implements kernel.Eject.
func (s *WOStage) EdenType() string { return TypeWOStage }

// PoolHint implements kernel.PoolHinter.
func (s *WOStage) PoolHint() kernel.PoolHint { return s.pool }

// In returns the stage's passive-input port.
func (s *WOStage) In() *WOInPort { return s.in }

// Reader returns the i-th input channel reader; the builder uses its
// ID to wire capability-mode producers.
func (s *WOStage) Reader(i int) *ChannelReader { return s.ins[i].(*ChannelReader) }

// Serve implements kernel.Eject.
func (s *WOStage) Serve(inv *kernel.Invocation) {
	if !s.in.Serve(inv) {
		inv.Fail(fmt.Errorf("%w: %q on %s stage %q", kernel.ErrNoSuchOperation, inv.Op, "write-only", s.name))
	}
}

// ConvStage is a filter Eject in the conventional (buffered)
// discipline: like a Unix process it performs active input *and*
// active output, so it receives no stream invocations at all — both
// its neighbours are PassiveBuffer Ejects it invokes.  It is
// registered with the kernel because it is an Eject and must be
// counted (Figure 1's 2n+3 Ejects), but its Serve only answers
// OpChannels (with nothing) and rejects the rest.
type ConvStage struct {
	name string
	stageRun
}

// NewConvStage builds a conventional stage from its already-wired
// active ports.
func NewConvStage(name string, body Body, ins []ItemReader, outs []ItemWriter) *ConvStage {
	return &ConvStage{name: name, stageRun: newStageRun(body, ins, outs, false)}
}

// EdenType implements kernel.Eject.
func (s *ConvStage) EdenType() string { return TypeConvStage }

// Serve implements kernel.Eject.
func (s *ConvStage) Serve(inv *kernel.Invocation) {
	if inv.Op == OpChannels {
		inv.Reply(&ChannelsReply{})
		return
	}
	inv.Fail(fmt.Errorf("%w: %q on conventional stage %q", kernel.ErrNoSuchOperation, inv.Op, s.name))
}

// SinkEject is a pure consumer in the read-only or conventional
// discipline: "Output devices such as terminals and printers would
// provide a potentially infinite supply of Read invocations" (§4).
// Its pump goroutine owns the active input; it serves no stream
// operations itself.  "Connecting a terminal to a filter Eject would be
// rather like starting a pump" (§4): Start begins pulling.
type SinkEject struct {
	name string
	stageRun
}

// NewSinkEject builds a sink around a consumer function.
func NewSinkEject(name string, body func(ins []ItemReader) error, ins ...ItemReader) *SinkEject {
	run := func(ins []ItemReader, _ []ItemWriter) error { return body(ins) }
	return &SinkEject{name: name, stageRun: newStageRun(run, ins, nil, false)}
}

// EdenType implements kernel.Eject.
func (s *SinkEject) EdenType() string { return TypeSink }

// Serve implements kernel.Eject; a sink advertises no channels.
func (s *SinkEject) Serve(inv *kernel.Invocation) {
	if inv.Op == OpChannels {
		inv.Reply(&ChannelsReply{})
		return
	}
	inv.Fail(fmt.Errorf("%w: %q on sink %q", kernel.ErrNoSuchOperation, inv.Op, s.name))
}
