package transput

import (
	"fmt"
	"sync"

	"asymstream/internal/kernel"
)

// Stage is a stage Eject: a body, the streams it runs over, and the one
// passive port it declares, if any — which is all that tells a
// read-only stage from a write-only or a conventional one (§2: an Eject
// is what its invocations and replies show).
//
//   - out (NewROStage): a source or filter in the read-only discipline,
//     active input on its InPorts and passive output on its OutPort.
//     Compare Figure 2: "The filters F_i all perform active input and
//     passive output."
//   - in (NewWOStage): a filter or sink in the write-only discipline,
//     passive input on its WOInPort and active output on its Pushers —
//     the exact dual (§5).  Started eagerly: the pipeline is driven by
//     its source, and a stage must already be consuming when data
//     arrives.
//   - neither (NewConvStage): active at both ends, like a Unix process
//     (Figure 1) — a buffered stage between two PassiveBuffers, the
//     write-only source, or the pump of a pulling sink ("Connecting a
//     terminal to a filter Eject would be rather like starting a pump",
//     §4).  It is registered because it is an Eject and must be counted
//     (Figure 1's 2n+3 Ejects), but it serves no stream: it answers
//     OpChannels with nothing and refuses the rest.
//
// The stage runs its body once on its own goroutine, keeps the result,
// then ends the streams.
type Stage struct {
	name string
	out  *OutPort
	in   *WOInPort
	lazy bool

	ins  []ItemReader
	outs []ItemWriter
	body Body

	once  sync.Once
	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error
	done  chan struct{}
}

// NewConvStage builds a conventional stage from its already-wired
// active ports; with no outs it is a sink pump.  The read-only and
// write-only constructors start from it and add their passive port.
func NewConvStage(name string, body Body, ins []ItemReader, outs []ItemWriter) *Stage {
	return &Stage{name: name, body: body, ins: ins, outs: outs, done: make(chan struct{})}
}

// ROStageConfig parameterises a read-only stage.
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
}

// NewROStage builds a read-only stage.  ins are the stage's input
// readers (typically InPorts pulling from upstream Ejects; empty for a
// source).  The stage must then be registered with the kernel by the
// caller; use Start (or the first incoming invocation, in lazy mode)
// to run the body.
func NewROStage(k *kernel.Kernel, cfg ROStageConfig, body Body, ins ...ItemReader) *Stage {
	outNames := cfg.OutNames
	if len(outNames) == 0 {
		outNames = []string{"Output"}
	}
	port := NewOutPort(k, OutPortConfig{CapabilityMode: cfg.CapabilityMode})
	outs := make([]ItemWriter, len(outNames))
	for i, nm := range outNames {
		outs[i] = port.Declare(nm, ChannelNum(i), cfg.Anticipation)
	}
	s := NewConvStage(cfg.Name, body, ins, outs)
	s.out, s.lazy = port, cfg.LazyStart
	return s
}

// WOStageConfig parameterises a write-only stage.
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
}

// NewWOStage builds a write-only stage.  outs are the stage's output
// writers (typically Pushers to downstream Ejects; empty for a final
// sink that consumes in its body).
func NewWOStage(k *kernel.Kernel, cfg WOStageConfig, body Body, outs ...ItemWriter) *Stage {
	inNames := cfg.InNames
	if len(inNames) == 0 {
		inNames = []string{"Input"}
	}
	port := NewWOInPort(k, WOInPortConfig{CapabilityMode: cfg.CapabilityMode})
	ins := make([]ItemReader, len(inNames))
	for i, nm := range inNames {
		writers := 1
		if i < len(cfg.Writers) && cfg.Writers[i] > 0 {
			writers = cfg.Writers[i]
		}
		ins[i] = port.Declare(nm, ChannelNum(i), cfg.Capacity, writers)
	}
	s := NewConvStage(cfg.Name, body, ins, outs)
	s.in = port
	return s
}

// EdenType implements kernel.Eject.
func (s *Stage) EdenType() string { return "transput.Stage" }

// Out returns a read-only stage's OutPort (for channel adverts and
// laziness probes).
func (s *Stage) Out() *OutPort { return s.out }

// Writer returns a read-only stage's i-th output channel writer (0 =
// primary); the pipeline builder uses its ID to wire capability-mode
// consumers.
func (s *Stage) Writer(i int) *ChannelWriter { return s.outs[i].(*ChannelWriter) }

// Reader returns a write-only stage's i-th input channel reader; the
// builder uses its ID to wire capability-mode producers.
func (s *Stage) Reader(i int) *ChannelReader { return s.ins[i].(*ChannelReader) }

// Serve implements kernel.Eject: every operation goes to the passive
// port the stage declared; without one, OpChannels answers with
// nothing.  In lazy mode the first invocation of any kind starts the
// body.
func (s *Stage) Serve(inv *kernel.Invocation) {
	if s.lazy {
		s.Start()
	}
	kind := "conventional"
	switch {
	case s.out != nil:
		if s.out.Serve(inv) {
			return
		}
		kind = "read-only"
	case s.in != nil:
		if s.in.Serve(inv) {
			return
		}
		kind = "write-only"
	case inv.Op == OpChannels:
		inv.Reply(&ChannelsReply{})
		return
	}
	inv.Fail(fmt.Errorf("%w: %q on %s stage %q", kernel.ErrNoSuchOperation, inv.Op, kind, s.name))
}

// Start runs the body (idempotent).  When it returns its result is
// recorded and the streams are ended: outputs closed — as aborts
// carrying the body's error, if it failed — and inputs cancelled, which
// releases any upstream producer, or backlog of slab views, the body
// did not fully drain.  A body that panics has failed: the panic is its
// error, as a Serve panic is its invocation's.
func (s *Stage) Start() {
	s.once.Do(func() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer close(s.done)
			err := s.run()
			s.errMu.Lock()
			s.err = err
			s.errMu.Unlock()
			reason := "stage complete"
			if err != nil {
				reason = err.Error()
			}
			endStreams(s.ins, s.outs, err, reason)
		}()
	})
}

// run calls the body once, recovering a panic as its error.
func (s *Stage) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("transput: body of %q panicked: %v", s.name, r)
		}
	}()
	return s.body(s.ins, s.outs)
}

// Done is closed when the body has finished and its streams are ended.
func (s *Stage) Done() <-chan struct{} { return s.done }

// Err returns the body's result once it has finished.
func (s *Stage) Err() error {
	s.wg.Wait()
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// OnDeactivate aborts the stage's streams so the body can exit: the
// Eject is going away.  An output that had already ended drops its
// backlog too, which passive output otherwise keeps for a reader to
// drain: no Transfer reaches this instance again, and the backlog's slab
// views would outlive it.  A lazy body that never ran runs now, once,
// against its aborted streams, so its deferred cleanup always runs.
func (s *Stage) OnDeactivate() {
	endStreams(s.ins, s.outs, errStageDeactivated, errStageDeactivated.Msg)
	for _, w := range s.outs {
		if cw, ok := w.(*ChannelWriter); ok {
			cw.Discard(errStageDeactivated)
		}
	}
	if s.lazy {
		s.Start()
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
