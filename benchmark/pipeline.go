package main

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"asymstream/internal/filters"
	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
)

// latencySample is how often a closed-loop source stamps an item: two
// clock reads per 64 items leave the throughput alone.
const latencySample = 64

// pipeSpec is a linear pipeline workload: source | identity filters |
// sink under one discipline, on one node or across a socket mesh.
type pipeSpec struct {
	name, why string
	disc      transput.Discipline
	filters   int
	transport transput.Transport // "" keeps everything on one node
	place     func(transput.Role, int) netsim.NodeID
	opt       transput.Options
	itemSize  int
	items     int
	slice     int     // items to a slice (measure.go); a multiple of latencySample
	rate      float64 // open loop at this many items/s when > 0
}

func (s pipeSpec) workload() workload {
	return workload{name: s.name, why: s.why, rep: s.rep, gatesLatency: s.rate > 0, push: s.disc == transput.WriteOnly}
}

// nesting says where the spec's ports issue their invocations from
// (trace.go).
func (s pipeSpec) nesting() nesting {
	if s.opt.Window > 1 || s.opt.Prefetch > 0 {
		return overlapped
	}
	return inPort
}

// b1 reports whether the workload runs the paper's accounting: one
// datum per invocation, so the counting claims hold exactly.
func (s pipeSpec) b1() bool { return s.opt.BatchMax == 1 && s.opt.Window <= 1 }

func (s pipeSpec) nodes() int {
	if s.transport == "" {
		return 1
	}
	return 2
}

// newKernel boots the workload's kernel.  Untraced, it is exactly what
// a user gets from NewTransportKernel; traced, the same link is made
// by hand so that it can be decorated.
func (s pipeSpec) newKernel(tr *tracer) (*kernel.Kernel, error) {
	cfg := kernel.Config{Net: netsim.Config{Nodes: s.nodes()}}
	if tr == nil {
		return transput.NewTransportKernel(cfg, s.transport)
	}
	cfg.Trace = tr.kernelHook
	if s.transport != "" {
		link, err := transport.NewSocketNetwork(string(s.transport), s.nodes())
		if err != nil {
			return nil, err
		}
		cfg.Link = tracedLink{link, tr}
	}
	return kernel.New(cfg), nil
}

// pipeRun is one pipeline's two ends — what the source stamps and the
// sink records — and, once built, the pipeline between them.  The ends
// are allocated before set-up starts, so they are in the heap baseline
// and not in live_heap_mb.
type pipeRun struct {
	items  int
	clk    monoClock
	pc     *pacer  // open loop
	stamp  []int64 // closed loop: when every latencySample-th item left
	lat    []float64
	o      oracle
	genCPU time.Duration
	// genCPUAt is the open-loop generator thread's CPU when it released
	// the first item of each slice, and once more at the end.
	genCPUAt []time.Duration

	p     *transput.Pipeline
	build time.Duration
}

func (s pipeSpec) newRun(items int) *pipeRun {
	run := &pipeRun{items: items, clk: monoClock{time.Now()}}
	if s.rate > 0 {
		run.pc = newPacer(run.clk, s.rate, items)
		run.lat = make([]float64, 0, items)
		run.genCPUAt = make([]time.Duration, 0, items/s.slice+2)
	} else {
		run.stamp = make([]int64, items/latencySample+1)
		run.lat = make([]float64, 0, len(run.stamp))
	}
	return run
}

// source is the generator: closed loop, it hands items over as fast as
// the pipeline takes them; open loop, it owns one OS thread and spins
// on it until each item is due, and its CPU is read from that thread
// so that it can be taken off the process total.
func (run *pipeRun) source(g *generator, slice int) transput.SourceFunc {
	if run.pc == nil {
		return func(out transput.ItemWriter) error {
			for seq := 0; seq < run.items; seq++ {
				if seq%latencySample == 0 {
					run.stamp[seq/latencySample] = run.clk.now()
				}
				if err := out.Put(g.item(uint64(seq))); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return func(out transput.ItemWriter) error {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		run.pc.begin()
		for seq := 0; seq < run.items; seq++ {
			if seq%slice == 0 {
				run.genCPUAt = append(run.genCPUAt, cpuTime(syscall.RUSAGE_THREAD))
			}
			run.pc.wait(seq)
			if err := out.Put(g.item(uint64(seq))); err != nil {
				return err
			}
		}
		run.genCPUAt = append(run.genCPUAt, cpuTime(syscall.RUSAGE_THREAD))
		run.genCPU = run.genCPUAt[len(run.genCPUAt)-1] - run.genCPUAt[0]
		return nil
	}
}

// sink is the consumer: it feeds the oracle and takes each item's
// latency from its due time (open loop) or its stamp (closed loop).
func (run *pipeRun) sink(in transput.ItemReader) error {
	for {
		item, err := in.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if seq := run.o.count; seq < run.items {
			if run.pc != nil {
				run.lat = append(run.lat, float64(run.clk.now()-run.pc.due[seq])/1e3)
			} else if seq%latencySample == 0 {
				run.lat = append(run.lat, float64(run.clk.now()-run.stamp[seq/latencySample])/1e3)
			}
		}
		run.o.observe(item)
	}
}

// build wires one pipeline of the spec's shape between run's ends.  tr
// is nil for the warm-up pass and for untraced repetitions.
func (s pipeSpec) build(k *kernel.Kernel, g *generator, run *pipeRun, tr *tracer) error {
	src, sink := run.source(g, s.slice), transput.SinkFunc(run.sink)
	fs := make([]transput.Filter, s.filters)
	var actors []*actor
	for i := range fs {
		fs[i] = transput.Filter{Name: fmt.Sprintf("f%d", i), Body: filters.Identity()}
	}
	if tr != nil {
		a := tr.newActor("src")
		src = a.traceSource(src)
		actors = append(actors, a)
		for i := range fs {
			a := tr.newActor(fs[i].Name)
			fs[i].Body = a.traceBody(fs[i].Body)
			actors = append(actors, a)
		}
		a = tr.newActor("sink")
		sink = a.traceSink(sink)
		actors = append(actors, a)
	}

	opt := s.opt
	opt.Transport, opt.Placement = s.transport, s.place
	t0 := time.Now()
	p, err := transput.BuildPipeline(k, s.disc, src, fs, sink, opt)
	if err != nil {
		return err
	}
	run.build = time.Since(t0)
	run.p = p
	if tr != nil {
		tr.bind(p.SourceUID, actors[0])
		for i, id := range p.FilterUIDs {
			tr.bind(id, actors[1+i])
		}
		tr.bind(p.SinkUID, actors[len(actors)-1])
	}
	return nil
}

func (a *actor) traceSource(src transput.SourceFunc) transput.SourceFunc {
	return func(out transput.ItemWriter) error {
		a.begin()
		defer a.finish()
		return src(tracedWriter{out, a, new(int64)})
	}
}

func (a *actor) traceSink(sink transput.SinkFunc) transput.SinkFunc {
	return func(in transput.ItemReader) error {
		a.begin()
		defer a.finish()
		return sink(tracedReader{in, a, new(int64)})
	}
}

// rep is one repetition on a fresh kernel: set-up (link mesh, kernel
// boot, a warm-up pipeline of a tenth of the items, the timed
// pipeline's build), the timed run, the oracle, and the teardown's
// quiescence checks.
func (s pipeSpec) rep(c repConfig) (r repResult) {
	items := c.scaled(s.items, 64)
	r.itemBytes = s.itemSize
	g := newGenerator(c.seed, s.itemSize)
	warm, run := s.newRun(max(items/10, 1)), s.newRun(items)
	run.o.cut = newSlicer(s.slice, items)
	baseGoroutines := runtime.NumGoroutine()
	heap0 := liveHeap()

	t0 := time.Now()
	k, err := s.newKernel(c.trace)
	if err != nil {
		return r.abort(items, err)
	}
	defer k.Shutdown()
	if err := s.build(k, g, warm, nil); err != nil {
		return r.abort(items, err)
	}
	if err := warm.p.Run(); err != nil {
		return r.abort(items, fmt.Errorf("warm-up: %w", err))
	}
	warm.p.Destroy()
	if err := s.build(k, g, run, c.trace); err != nil {
		return r.abort(items, err)
	}
	r.setup = time.Since(t0)
	r.build = run.build

	if c.trace != nil {
		c.trace.nest = s.nesting()
		c.trace.armed.Store(true)
	}
	m := startMeter(k.Metrics().Snapshot)
	run.o.cut.start()
	run.p.Start()
	r.goroutinesPeak = runtime.NumGoroutine()
	err = run.p.Wait()
	r.m = m.stop()
	if c.trace != nil {
		r.traced(c.trace, items, dataInvocations(r.m.counters))
	}
	r.liveHeap = liveHeap() - heap0
	r.items, r.genCPU = run.o.count, run.genCPU
	if run.pc != nil {
		r.lat = latencyOf(run.lat, s.slice)
	} else {
		r.lat = latencyOf(run.lat, s.slice/latencySample)
	}
	genCPU := make([]time.Duration, max(len(run.genCPUAt)-1, 0))
	for i := range genCPU {
		genCPU[i] = run.genCPUAt[i+1] - run.genCPUAt[i]
	}
	r.sliced(run.o.cut, genCPU)
	if err != nil {
		return r.abort(items, fmt.Errorf("pipeline: %w", err))
	}

	// The oracle: what arrived against what the generator made, then
	// the paper's counting claims where the workload pins them.
	r.judge(&run.o, g, items)
	if s.b1() {
		n := s.filters
		data := dataInvocations(r.m.counters)
		// One closing exchange per link rides on top of n+1 per datum.
		r.check(data >= int64((n+1)*items) && data <= int64((n+1)*(items+1)),
			"%d data invocations for %d items over %d links: not n+1 = %d per datum", data, items, n+1, n+1)
		r.check(run.p.Ejects() == n+2, "%d Ejects, the paper predicts n+2 = %d", run.p.Ejects(), n+2)
	}
	if run.pc != nil {
		r.genLateP50Us, r.genLateP99Us = run.pc.lateness(items)
		r.invalid = !run.pc.valid(items)
	}

	// Pipeline.Destroy removes the stage Ejects but does not retire
	// their channels, so ChannelsLive cannot come back to zero (README,
	// "Known gaps"); what it must come back to is the links the two
	// pipelines declared, no more.
	run.p.Destroy()
	k.Shutdown()
	r.checkQuiescent(k.Metrics(), int64(2*(s.filters+1)), baseGoroutines)
	return r
}
