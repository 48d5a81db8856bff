package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

const (
	// gatewayBurst is the items one visit moves through a channel pair,
	// and the capacity every channel is declared with.
	gatewayBurst = 16
	// gatewayChurn: every gatewayChurn-th visit retires and re-declares
	// one cold pair.
	gatewayChurn    = 8
	gatewayItemSize = 64
)

// portEject is the thinnest Eject a passive port can sit behind.
type portEject struct {
	serve func(*kernel.Invocation) bool
}

func (portEject) EdenType() string { return "benchmark.Port" }

func (e portEject) Serve(inv *kernel.Invocation) {
	if !e.serve(inv) {
		inv.Fail(kernel.ErrNoSuchOperation)
	}
}

// gatewaySpec is E13's ingress/egress pair in capability mode, with
// the driver as the pump.  Set-up admits the channel population; each
// visit Delivers a burst into one hot pair's ingress channel, moves it
// to the egress channel (Next → PutOwned) and Transfers it out.  The
// hot set is four times the 4096-slot capability cache, walked along a
// seeded permutation, so lookups keep missing it.
type gatewaySpec struct {
	name, why string
	pairs     int
	hot       int
	visits    int
	slice     int // visits to a slice (measure.go)
}

func (s gatewaySpec) workload() workload {
	return workload{name: s.name, why: s.why, rep: s.rep}
}

// gateway is the admitted population.
type gateway struct {
	k       *kernel.Kernel
	in      *transput.WOInPort
	out     *transput.OutPort
	inUID   uid.UID
	outUID  uid.UID
	readers []*transput.ChannelReader
	writers []*transput.ChannelWriter

	deliver  transput.DeliverRequest
	transfer transput.TransferRequest
	batch    [][]byte
}

func admit(hook kernel.TraceFunc, pairs int) (*gateway, error) {
	gw := &gateway{k: kernel.New(kernel.Config{Trace: hook}), batch: make([][]byte, gatewayBurst)}
	gw.in = transput.NewWOInPort(gw.k, transput.WOInPortConfig{Capacity: gatewayBurst, CapabilityMode: true})
	gw.out = transput.NewOutPort(gw.k, transput.OutPortConfig{Capacity: gatewayBurst, CapabilityMode: true})
	var err error
	if gw.inUID, err = gw.k.Create(portEject{gw.in.Serve}, 0); err == nil {
		gw.outUID, err = gw.k.Create(portEject{gw.out.Serve}, 0)
	}
	if err != nil {
		gw.k.Shutdown()
		return nil, err
	}
	gw.readers = make([]*transput.ChannelReader, pairs)
	gw.writers = make([]*transput.ChannelWriter, pairs)
	for i := range gw.readers {
		gw.declare(i)
	}
	return gw, nil
}

func (gw *gateway) declare(i int) {
	gw.readers[i] = gw.in.Declare("in", transput.ChannelNum(i), gatewayBurst, 1)
	gw.writers[i] = gw.out.Declare("out", transput.ChannelNum(i), gatewayBurst)
}

func (gw *gateway) retire(i int) bool {
	return gw.in.Retire(gw.readers[i]) && gw.out.Retire(gw.writers[i])
}

// churn retires pair i and declares it afresh: a new generation of the
// same pooled records.
func (gw *gateway) churn(i int) bool {
	ok := gw.retire(i)
	gw.declare(i)
	return ok
}

// visit moves one burst, items [base, base+gatewayBurst), through pair
// j and hands what comes out to the oracle.  move, when set, times the
// pump's own port calls for the trace.
func (gw *gateway) visit(g *generator, j, base int, o *oracle, move func(func())) error {
	for i := range gw.batch {
		gw.batch[i] = g.item(uint64(base + i))
	}
	gw.deliver.Channel, gw.deliver.Items = gw.readers[j].ID(), gw.batch
	res, err := gw.k.Invoke(uid.Nil, gw.inUID, transput.OpDeliver, &gw.deliver)
	if err != nil {
		return err
	}
	if rep, _ := res.(*transput.DeliverReply); rep == nil || rep.Status != transput.StatusOK {
		return fmt.Errorf("gateway: Deliver answered %v", res)
	}
	if move != nil {
		move(func() { err = gw.pump(j) })
	} else {
		err = gw.pump(j)
	}
	if err != nil {
		return err
	}
	gw.transfer.Channel = gw.writers[j].ID()
	for got := 0; got < gatewayBurst; {
		gw.transfer.Max = gatewayBurst - got
		res, err := gw.k.Invoke(uid.Nil, gw.outUID, transput.OpTransfer, &gw.transfer)
		if err != nil {
			return err
		}
		rep, _ := res.(*transput.TransferReply)
		if rep == nil || rep.Status != transput.StatusOK || len(rep.Items) == 0 {
			return fmt.Errorf("gateway: Transfer answered %v", res)
		}
		for _, item := range rep.Items {
			o.observe(item)
		}
		got += len(rep.Items)
	}
	return nil
}

// pump is the gateway's own work: the burst moves from the ingress
// channel to the egress channel by ownership, with no copy.
func (gw *gateway) pump(j int) error {
	for i := 0; i < gatewayBurst; i++ {
		item, err := gw.readers[j].Next()
		if err != nil {
			return err
		}
		if err := gw.writers[j].PutOwned(item); err != nil {
			return err
		}
	}
	return nil
}

func (s gatewaySpec) rep(c repConfig) (r repResult) {
	// The population is the workload's character, so the traced tenth
	// keeps all of it; only -quick shrinks it.
	pop := min(1, 10*c.scale)
	pairs := max(int(float64(s.pairs)*pop), 64)
	hot := max(int(float64(s.hot)*pop), 32)
	visits := c.scaled(s.visits, 16)
	items := visits * gatewayBurst
	r.itemBytes = gatewayItemSize
	g := newGenerator(c.seed, gatewayItemSize)
	perm := rand.New(rand.NewSource(c.seed)).Perm(hot)
	o := oracle{cut: newSlicer(s.slice*gatewayBurst, items)}
	lat := make([]float64, 0, visits)
	baseGoroutines := runtime.NumGoroutine()
	heap0 := liveHeap()

	var hook kernel.TraceFunc
	if c.trace != nil {
		hook = c.trace.kernelHook
	}
	t0 := time.Now()
	gw, err := admit(hook, pairs)
	if err != nil {
		return r.abort(items, err)
	}
	defer gw.k.Shutdown()
	r.build = time.Since(t0)
	met := gw.k.Metrics()
	r.idleChanBytes = float64(met.IdleChannelBytes.Value()) / float64(met.ChannelsLive.Value())
	var warm oracle
	for v := 0; v < max(visits/10, 1); v++ {
		if err := gw.visit(g, perm[v%hot], v*gatewayBurst, &warm, nil); err != nil {
			return r.abort(items, fmt.Errorf("warm-up: %w", err))
		}
	}
	r.setup = time.Since(t0)

	var pump *actor
	var move func(func())
	var moveKind, churnKind callKind
	if c.trace != nil {
		pump = c.trace.newActor("pump")
		c.trace.bind(uid.Nil, pump)
		moveKind, churnKind = pump.kind("port_move"), pump.kind("declare_retire")
		visit := int64(0)
		move = func(fn func()) { pump.call(&moveKind, visit, fn); visit++ }
		c.trace.nest = inBody
		c.trace.armed.Store(true)
		pump.begin()
	}
	m := startMeter(met.Snapshot)
	o.cut.start()
	r.goroutinesPeak = runtime.NumGoroutine()
	cold, retireFailed := 0, 0
	for v := 0; v < visits; v++ {
		t := time.Now()
		if err := gw.visit(g, perm[v%hot], v*gatewayBurst, &o, move); err != nil {
			r.m = m.stop()
			return r.abort(items, err)
		}
		lat = append(lat, float64(time.Since(t))/1e3)
		if v%gatewayChurn == gatewayChurn-1 && pairs > hot {
			i := hot + cold%(pairs-hot)
			cold++
			ok := false
			if pump != nil {
				pump.call(&churnKind, int64(v), func() { ok = gw.churn(i) })
			} else {
				ok = gw.churn(i)
			}
			if !ok {
				retireFailed++
			}
		}
	}
	r.m = m.stop()
	if pump != nil {
		pump.finish()
		r.traced(c.trace, items, dataInvocations(r.m.counters))
	}
	r.liveHeap = liveHeap() - heap0
	r.items, r.lat = o.count, latencyOf(lat, s.slice)
	r.sliced(o.cut, nil)

	r.judge(&o, g, items)
	r.check(retireFailed == 0, "%d Retire calls found their channel already gone", retireFailed)

	for i := range gw.readers {
		if !gw.retire(i) {
			retireFailed++
		}
	}
	r.check(retireFailed == 0, "teardown: a channel was already retired")
	gw.k.Shutdown()
	r.checkQuiescent(met, 0, baseGoroutines)
	return r
}
