package main

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"sync"
	"time"

	"asymstream/internal/filters"
	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/stripemap"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// The isolated figures time one layer's public calls alone, on the
// frame shape the workload actually produced, so that a layer's
// in-situ cost can be read against what the layer costs by itself.
// Iteration counts are fixed; each figure takes a few tens of ms.

// timeOp runs fn n times after one warm call and returns nanoseconds
// and heap allocations per call.
func timeOp(n int, fn func()) (ns, allocs float64) {
	fn()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// frameShape is what one data frame of a workload looks like.
type frameShape struct {
	push     bool // a DeliverRequest rather than a TransferReply
	batch    int  // items per frame
	itemSize int
}

// iters scales an iteration count sized for small frames down for big
// ones, so that a figure moves about 64 MiB however large the frame
// (push-tcp-bulk's are some 400 KiB) and still takes tens of ms.
func (f frameShape) iters(base int) int {
	return max(base/50, min(base, (64<<20)/(max(f.batch, 1)*f.itemSize)))
}

// record builds the stream-protocol record of that shape.
func (f frameShape) record() any {
	items := make([][]byte, max(f.batch, 1))
	for i := range items {
		items[i] = bytes.Repeat([]byte{byte(i)}, f.itemSize)
	}
	if f.push {
		return &transput.DeliverRequest{Items: items}
	}
	return &transput.TransferReply{Items: items}
}

// releaseItems gives back the slab views a decoded record holds.
func releaseItems(v any) {
	switch r := v.(type) {
	case *transput.TransferReply:
		wire.ReleaseAll(r.Items)
	case *transput.DeliverRequest:
		wire.ReleaseAll(r.Items)
	}
}

// isolated measures every layer's isolated figures.  A figure whose
// set-up fails is left out and named in the returned error list; the
// in-situ metrics do not depend on it.  The figures that do not depend
// on the workload's frame shape are measured once in a process, so the
// suite's seven traced passes report one reading of them, not seven.
func isolated(shape frameShape) (map[string]float64, []error) {
	out, errs := unshaped()
	out, errs = maps.Clone(out), slices.Clone(errs)
	isolatedWire(out, shape)
	tried(&errs, "netsim+transport", isolatedLinks(out, shape))
	tried(&errs, "bridge", isolatedBridge(out, shape))
	out["driver.direct_items_per_s"] = directItemsPerSec(shape.itemSize)
	return out, errs
}

// tried files a figure's set-up error under its layer's name.
func tried(errs *[]error, layer string, err error) {
	if err != nil {
		*errs = append(*errs, fmt.Errorf("isolated %s: %w", layer, err))
	}
}

// unshaped holds the figures no frame shape enters.
var unshaped = sync.OnceValues(func() (map[string]float64, []error) {
	out := make(map[string]float64)
	var errs []error
	tried(&errs, "kernel", isolatedKernel(out))
	tried(&errs, "transput", isolatedTransput(out))
	tried(&errs, "set-up", isolatedSetup(out))
	isolatedStripemap(out)
	// An unregistered record rides the gob fallback; kept as its own
	// row so that removing gob from the links has a number.
	var gbuf []byte
	out["wire.gob_fallback_ns"], _ = timeOp(2000, func() {
		gbuf, _ = wire.Append(gbuf[:0], &transput.ChannelsReply{})
		_, _, _ = wire.Decode(gbuf)
	})
	return out, errs
})

func isolatedKernel(out map[string]float64) error {
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	id, err := k.Create(echoEject{}, 0)
	if err != nil {
		return err
	}
	payload := &transput.TransferRequest{}
	out["kernel.invoke_local_ns"], out["kernel.invoke_local_allocs"] = timeOp(50000, func() {
		_, err = k.Invoke(uid.Nil, id, opEcho, payload)
	})
	if err != nil {
		return err
	}
	out["kernel.create_destroy_ns"], _ = timeOp(5000, func() {
		var tmp uid.UID
		if tmp, err = k.Create(echoEject{}, 0); err == nil {
			err = k.Destroy(tmp)
		}
	})
	// The kernel's own Set, with the counters the calls above moved.
	out["metrics.snapshot_ns"], _ = timeOp(20000, func() { _ = k.Metrics().Snapshot() })
	return err
}

// isolatedTransput times one warm stream hop each way at batch 1 — a
// free-running source pulled through an InPort, a draining sink pushed
// into by a Pusher — and one Retire + Declare of a capability channel
// pair among 4096 resident ones.
func isolatedTransput(out map[string]float64) error {
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	item := bytes.Repeat([]byte{'x'}, 32)

	src := transput.NewROStage(k, transput.ROStageConfig{Name: "src"},
		func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
			for outs[0].Put(item) == nil {
			}
			return nil
		})
	srcID := k.NewUID()
	if err := k.CreateWithUID(srcID, src, 0); err != nil {
		return err
	}
	src.Start()
	in := transput.NewInPort(k, uid.Nil, srcID, transput.Chan(0), transput.InPortConfig{Batch: 1})
	var err error
	out["transput.transfer_hop_ns"], out["transput.transfer_hop_allocs"] = timeOp(30000, func() { _, err = in.Next() })
	in.Cancel("measured")
	if err != nil {
		return err
	}

	sink := transput.NewWOStage(k, transput.WOStageConfig{Name: "sink"},
		func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
			_, err := transput.Drain(ins[0])
			return err
		})
	sinkID := k.NewUID()
	if err := k.CreateWithUID(sinkID, sink, 0); err != nil {
		return err
	}
	sink.Start()
	push := transput.NewPusher(k, uid.Nil, sinkID, transput.Chan(0), transput.PusherConfig{Batch: 1})
	out["transput.deliver_hop_ns"], out["transput.deliver_hop_allocs"] = timeOp(30000, func() { err = push.Put(item) })
	if cerr := push.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	gw, err := admit(nil, 4096)
	if err != nil {
		return err
	}
	defer gw.k.Shutdown()
	i := 0
	out["transput.declare_retire_ns"], _ = timeOp(8000, func() {
		gw.churn(i)
		i = (i + 1) % len(gw.readers)
	})
	return nil
}

func isolatedWire(out map[string]float64, shape frameShape) {
	rec := shape.record()
	var buf []byte
	out["wire.append_ns_per_frame"], out["wire.append_allocs"] = timeOp(shape.iters(50000), func() {
		buf, _ = wire.Append(buf[:0], rec)
	})
	out["wire.decode_ns_per_frame"], out["wire.decode_allocs"] = timeOp(shape.iters(50000), func() {
		_, _, _ = wire.Decode(buf)
	})

	// FrameReader: the same frame 64 times over, re-assembled from a
	// stream and decoded in place, views released as a port would.
	const frames = 64
	stream := bytes.Repeat(buf, frames)
	perStream, _ := timeOp(shape.iters(25600)/frames, func() {
		fr := wire.NewFrameReader(bytes.NewReader(stream), nil, 0)
		for {
			v, _, err := fr.Next()
			if err != nil {
				break
			}
			releaseItems(v)
		}
		fr.Close()
	})
	out["wire.framereader_ns_per_frame"] = perStream / frames

	slab := wire.NewSlab(nil, 0)
	out["wire.slab_alloc_release_ns"], _ = timeOp(200000, func() { wire.Release(slab.Alloc(shape.itemSize)) })
	slab.Close()
}

// isolatedLinks times one cross-node Transmit of the workload's frame
// on the simulator (with encoding on, the baseline the socket rows are
// read against) and on each real wire.
func isolatedLinks(out map[string]float64, shape frameShape) error {
	rec := shape.record()
	sim := netsim.New(netsim.Config{Nodes: 2, EncodePayloads: true}, nil)
	out["netsim.transmit_ns"], _ = timeOp(shape.iters(20000), func() { _, _, _ = sim.Transmit(0, 1, rec) })

	for _, kind := range []string{transport.KindUnix, transport.KindTCP} {
		link, err := transport.NewSocketNetwork(kind, 2)
		if err != nil {
			return err
		}
		out["transport.transmit_"+kind+"_ns"], _ = timeOp(shape.iters(10000), func() {
			var v any
			if v, _, err = link.Transmit(0, 1, rec); err == nil {
				releaseItems(v)
			}
		})
		_ = link.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// isolatedSetup times what a wire workload's set-up is made of: a
// two-node socket mesh, and a Dial to a listening bridge.
func isolatedSetup(out map[string]float64) error {
	setups := make([]float64, 5)
	for i := range setups {
		t0 := time.Now()
		link, err := transport.NewSocketNetwork(transport.KindUnix, 2)
		if err != nil {
			return err
		}
		setups[i] = float64(time.Since(t0)) / 1e6
		_ = link.Close()
	}
	out["transport.mesh_setup_ms"] = median(setups)

	srv, err := startEchoServer(nil)
	if err != nil {
		return err
	}
	defer srv.stop()
	dials := make([]float64, 5)
	for i := range dials {
		t0 := time.Now()
		p, err := transport.Dial(srv.addr)
		if err != nil {
			return err
		}
		dials[i] = float64(time.Since(t0)) / 1e6
		_ = p.Close()
	}
	out["transport.dial_ms"] = median(dials)
	return nil
}

// countSource serves a fixed number of copies of one item to a
// remote puller.
type countSource struct {
	item []byte
	left int
}

func (c *countSource) Next() ([]byte, error) {
	if c.left == 0 {
		return nil, io.EOF
	}
	c.left--
	return c.item, nil
}

func (c *countSource) Close() error { return nil }

func isolatedBridge(out map[string]float64, shape frameShape) error {
	srv, err := startEchoServer(nil)
	if err != nil {
		return err
	}
	defer srv.stop()
	item := bytes.Repeat([]byte{'x'}, shape.itemSize)
	one := frameShape{batch: 1, itemSize: shape.itemSize}

	peer, err := transport.Dial(srv.addr)
	if err != nil {
		return err
	}
	defer peer.Close()
	out["transport.bridge_invoke_ns"], out["transport.bridge_invoke_allocs"] = timeOp(one.iters(10000), func() {
		_, err = peer.Invoke(srv.target, opEcho, item)
	})
	if err != nil {
		return err
	}

	pulled := one.iters(50000)
	err = transport.RegisterControl(srv.k, func(string) (transport.ItemSource, error) {
		return &countSource{item: item, left: pulled}, nil
	})
	if err != nil {
		return err
	}
	rs, err := transport.OpenRemote(peer, "count")
	if err != nil {
		return err
	}
	t0 := time.Now()
	n := 0
	for ; ; n++ {
		if _, err = rs.Next(); err != nil {
			break
		}
	}
	elapsed := time.Since(t0)
	if err != io.EOF || n != pulled {
		return fmt.Errorf("remote source ended after %d of %d items: %v", n, pulled, err)
	}
	out["transport.remote_next_ns_per_item"] = float64(elapsed.Nanoseconds()) / float64(pulled)
	return rs.Close()
}

func isolatedStripemap(out map[string]float64) {
	const keys = 4096
	m := stripemap.New[uint64, int](128, func(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 }, nil)
	for k := uint64(0); k < keys; k++ {
		m.Store(k, int(k))
	}
	// Loads promote the freshly stored overlay into the read snapshot,
	// so the timed loads are the steady-state lock-free hits.
	for round := 0; round < 2; round++ {
		for k := uint64(0); k < keys; k++ {
			m.Load(k)
		}
	}
	var k uint64
	out["stripemap.load_hit_ns"], _ = timeOp(500000, func() { m.Load(k % keys); k++ })
	k = keys
	out["stripemap.load_or_store_ns"], _ = timeOp(100000, func() { m.LoadOrStore(k, 0); k++ })
	k = 1 << 32
	out["stripemap.store_delete_ns"], _ = timeOp(100000, func() { m.Store(k, 0); m.Delete(k); k++ })
}

// directItemsPerSec is the floor: the same identity bodies composed as
// plain calls over in-memory readers and writers, single-threaded,
// four filters deep like the local workloads.
func directItemsPerSec(itemSize int) float64 {
	const depth = 4
	n := min(100000, (32<<20)/itemSize) // at most 32 MiB a stage
	items := make([][]byte, n)
	back := make([]byte, n*itemSize)
	for i := range items {
		items[i] = back[i*itemSize : (i+1)*itemSize]
	}
	body := filters.Identity()
	t0 := time.Now()
	for d := 0; d < depth; d++ {
		w := &transput.CollectWriter{}
		_ = body([]transput.ItemReader{transput.NewSliceReader(items)}, []transput.ItemWriter{w})
		items = w.Items
	}
	return float64(n) / time.Since(t0).Seconds()
}
