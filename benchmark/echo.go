package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/transport"
	"asymstream/internal/uid"
)

// opEcho is the one operation the echo Eject answers.
const opEcho = "Benchmark.Echo"

// echoEject answers every invocation with its own payload.
type echoEject struct{}

func (echoEject) EdenType() string { return "benchmark.Echo" }

func (echoEject) Serve(inv *kernel.Invocation) { inv.Reply(inv.Payload) }

// echoSpec is the bridge workload: a server kernel behind
// transport.Listen/Serve, one client Peer, one caller, closed loop.
// The payload is a []byte, which the wire codec carries on its fast
// path, so what is timed is the bridge and not the gob fallback.
type echoSpec struct {
	name, why string
	itemSize  int
	items     int
	slice     int // round trips to a slice (measure.go)
}

func (s echoSpec) workload() workload {
	return workload{name: s.name, why: s.why, rep: s.rep, gatesLatency: true}
}

// echoServer is a listening bridge over a fresh kernel.  stop closes
// the listener, waits for Serve to return and shuts the kernel down;
// it may be called twice.
type echoServer struct {
	k      *kernel.Kernel
	target uid.UID
	addr   string
	stop   func()
}

func startEchoServer(hook kernel.TraceFunc) (*echoServer, error) {
	dir, err := os.MkdirTemp("", "asb-")
	if err != nil {
		return nil, err
	}
	k := kernel.New(kernel.Config{Trace: hook})
	fail := func(err error) (*echoServer, error) {
		k.Shutdown()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	target, err := k.Create(echoEject{}, 0)
	if err != nil {
		return fail(err)
	}
	addr := "unix:" + filepath.Join(dir, "b.sock")
	ln, err := transport.Listen(addr)
	if err != nil {
		return fail(err)
	}
	served := make(chan error, 1)
	go func() { served <- transport.Serve(ln, k) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			_ = ln.Close()
			<-served
			k.Shutdown()
			_ = os.RemoveAll(dir)
		})
	}
	return &echoServer{k: k, target: target, addr: addr, stop: stop}, nil
}

func (s echoSpec) rep(c repConfig) (r repResult) {
	// One P: a lone caller's ping-pong has nothing to run in parallel,
	// and with two its hand-offs sometimes wake a thread on the other
	// vCPU and sometimes do not, for whole runs at a time (README,
	// "Workloads"); that cost is the shared host's, not the bridge's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	items := c.scaled(s.items, 64)
	r.itemBytes = s.itemSize
	g := newGenerator(c.seed, s.itemSize)
	o := oracle{cut: newSlicer(s.slice, items)}
	lat := make([]float64, 0, items)
	baseGoroutines := runtime.NumGoroutine()
	heap0 := liveHeap()

	var hook kernel.TraceFunc
	if c.trace != nil {
		hook = c.trace.kernelHook
	}
	t0 := time.Now()
	srv, err := startEchoServer(hook)
	if err != nil {
		return r.abort(items, err)
	}
	defer srv.stop()
	peer, err := transport.Dial(srv.addr)
	if err != nil {
		return r.abort(items, err)
	}
	defer peer.Close()
	r.build = time.Since(t0)
	for seq := 0; seq < max(items/10, 1); seq++ {
		if _, err := peer.Invoke(srv.target, opEcho, g.item(uint64(seq))); err != nil {
			return r.abort(items, fmt.Errorf("warm-up: %w", err))
		}
	}
	r.setup = time.Since(t0)

	var caller *actor
	var bridge callKind
	if c.trace != nil {
		caller = c.trace.newActor("caller")
		c.trace.bind(uid.Nil, caller)
		bridge = caller.kind("bridge_invoke")
		c.trace.nest = inBridge
		c.trace.armed.Store(true)
		caller.begin()
	}
	m := startMeter(srv.k.Metrics().Snapshot)
	o.cut.start()
	r.goroutinesPeak = runtime.NumGoroutine()
	for seq := 0; seq < items; seq++ {
		var res any
		t := time.Now()
		if caller != nil {
			caller.call(&bridge, int64(seq), func() { res, err = peer.Invoke(srv.target, opEcho, g.item(uint64(seq))) })
		} else {
			res, err = peer.Invoke(srv.target, opEcho, g.item(uint64(seq)))
		}
		lat = append(lat, float64(time.Since(t))/1e3)
		if err != nil {
			r.m = m.stop()
			return r.abort(items, err)
		}
		back, _ := res.([]byte)
		o.observe(back)
	}
	r.m = m.stop()
	if caller != nil {
		caller.finish()
		r.traced(c.trace, items, int64(items))
	}
	r.liveHeap = liveHeap() - heap0
	r.items, r.lat = o.count, latencyOf(lat, s.slice)
	r.sliced(o.cut, nil)

	r.judge(&o, g, items)

	_ = peer.Close()
	srv.stop()
	r.checkQuiescent(srv.k.Metrics(), 0, baseGoroutines)
	return r
}
