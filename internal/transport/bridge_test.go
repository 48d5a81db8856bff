package transport_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/quiesce"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// countSource yields "0\n".."N-1\n", the bridge twin of the shell's
// count source.
type countSource struct{ i, n int }

func (c *countSource) Next() ([]byte, error) {
	if c.i >= c.n {
		return nil, io.EOF
	}
	it := []byte(fmt.Sprintf("%d\n", c.i))
	c.i++
	return it, nil
}

func (c *countSource) Close() error { return nil }

// kinds lists the bridge's listener kinds a test runs against.
var kinds = []string{transport.KindUnix, transport.KindTCP}

// echoEject replies with whatever payload it was invoked with.
type echoEject struct{}

func (echoEject) EdenType() string             { return "test.Echo" }
func (echoEject) Serve(inv *kernel.Invocation) { inv.Reply(inv.Payload) }

// openCount parses "count N" specs.
func openCount(spec string) (transport.ItemSource, error) {
	var n int
	if _, err := fmt.Sscanf(spec, "count %d", &n); err != nil {
		return nil, fmt.Errorf("bad spec %q: %w", spec, err)
	}
	return &countSource{n: n}, nil
}

// serve serves k on a Unix listener and returns its dial address and a
// stop that closes the listener and returns what Serve did; a test that
// has not stopped it by its end has it stopped then.
func serve(tb testing.TB, k *kernel.Kernel) (addr string, stop func() error) {
	return serveOn(tb, k, transport.KindUnix)
}

// serveOn is serve on a listener of kind: KindUnix, or KindTCP on
// loopback.
func serveOn(tb testing.TB, k *kernel.Kernel, kind string) (addr string, stop func() error) {
	tb.Helper()
	addr = "tcp:127.0.0.1:0"
	if kind == transport.KindUnix {
		addr = "unix:" + filepath.Join(tb.TempDir(), "bridge.sock")
	}
	ln, err := transport.Listen(addr)
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- transport.Serve(ln, k) }()
	stop = sync.OnceValue(func() error { ln.Close(); return <-served })
	tb.Cleanup(func() { _ = stop() })
	return kind + ":" + ln.Addr().String(), stop
}

// serveAndDial serves k and returns a Peer connected to it, for the
// caller to close.
func serveAndDial(tb testing.TB, k *kernel.Kernel) (*transport.Peer, func() error) {
	tb.Helper()
	addr, stop := serve(tb, k)
	p, err := transport.Dial(addr)
	if err != nil {
		tb.Fatalf("Dial: %v", err)
	}
	return p, stop
}

// startServer boots a serving kernel with an echo Eject and the count
// sources, and returns the dial address plus the echo's UID.
func startServer(t *testing.T) (addr string, echo uid.UID) {
	t.Helper()
	k := kernel.New(kernel.Config{})
	t.Cleanup(k.Shutdown)
	id, err := k.Create(echoEject{}, 0)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := transport.RegisterControl(k, openCount); err != nil {
		t.Fatalf("RegisterControl: %v", err)
	}
	addr, _ = serve(t, k)
	return addr, id
}

func TestBridgeInvoke(t *testing.T) {
	addr, echo := startServer(t)
	p, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()

	// Concurrent invocations multiplex on the one connection.
	const workers, per = 8, 50
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				msg := fmt.Sprintf("w%d-%d", w, i)
				res, err := p.Invoke(echo, "Echo", msg)
				if err != nil {
					errc <- err
					return
				}
				if res != msg {
					errc <- fmt.Errorf("got %v want %v", res, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Errors travel back as errors, not hangs.
	if _, err := p.Invoke(uid.UID{Hi: 1, Lo: 2}, "Echo", "x"); err == nil {
		t.Fatal("expected error invoking unknown UID")
	}
}

// TestBridgeProxy attaches a proxy for the remote echo Eject in a
// local kernel and invokes it through ordinary kernel invocation — the
// UID resolves location-independently across two kernels.
func TestBridgeProxy(t *testing.T) {
	addr, echo := startServer(t)
	p, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()

	local := kernel.New(kernel.Config{})
	defer local.Shutdown()
	if err := transport.AttachProxy(local, p, echo, 0); err != nil {
		t.Fatalf("AttachProxy: %v", err)
	}
	res, err := local.Invoke(uid.Nil, echo, "Echo", "across processes")
	if err != nil {
		t.Fatalf("Invoke via proxy: %v", err)
	}
	if res != "across processes" {
		t.Fatalf("got %v", res)
	}
}

// proxyItem is item i of the stream TestInPortPullsROStageThroughProxy
// sends: lengths on both sides of wire.SpliceCutoff, bytes set by i.
func proxyItem(i int) []byte {
	item := make([]byte, 1+i*131%(2*wire.SpliceCutoff))
	for j := range item {
		item[j] = byte(i + j)
	}
	return item
}

// digestItem adds item to h, length first, so the digest tells a
// stream from its items' concatenation.
func digestItem(h hash.Hash, item []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(item)))
	h.Write(n[:])
	h.Write(item)
}

// TestInPortPullsROStageThroughProxy: a transput InPort on one kernel
// pulls a read-only stage source on another through AttachProxy, four Transfers
// in flight, over unix and over tcp.  A whole stream arrives as the
// generator made it.  A stream cancelled part-way leaves both kernels'
// slab audits at zero, and the goroutines and fds back at their
// baselines once the bridge is torn down.
func TestInPortPullsROStageThroughProxy(t *testing.T) {
	const items = 600
	quiesce.Deadline(t, time.Minute)
	for _, kind := range kinds {
		for _, cancel := range []bool{false, true} {
			name := kind + "/whole"
			if cancel {
				name = kind + "/cancel"
			}
			t.Run(name, func(t *testing.T) {
				goroutines := quiesce.Baseline(t)
				fds := quiesce.FDs(t)

				far := kernel.New(kernel.Config{})
				gen := transput.NewROStage(far, transput.ROStageConfig{Name: "gen"},
					func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
						for i := 0; i < items; i++ {
							if err := transput.PutOwned(outs[0], proxyItem(i)); err != nil {
								return err
							}
						}
						return nil
					})
				src, err := far.Create(gen, 0)
				if err != nil {
					t.Fatal(err)
				}
				gen.Start()
				addr, stop := serveOn(t, far, kind)
				p, err := transport.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				near := kernel.New(kernel.Config{})
				if err := transport.AttachProxy(near, p, src, 0); err != nil {
					t.Fatal(err)
				}

				in := transput.NewInPort(near, uid.Nil, src, transput.Chan(transput.ChannelOutput), transput.InPortConfig{Batch: 8, Window: 4})
				want, got := sha256.New(), sha256.New()
				n := items
				if cancel {
					n = items / 3
				}
				for i := 0; i < n; i++ {
					digestItem(want, proxyItem(i))
				}
				for i := 0; i < n; i++ {
					item, err := in.Next()
					if err != nil {
						t.Fatalf("Next %d: %v", i, err)
					}
					digestItem(got, item)
				}
				if cancel {
					in.Cancel("enough")
					var aborted *transput.AbortedError
					if _, err := in.Next(); !errors.As(err, &aborted) {
						t.Errorf("Next after Cancel: %v, want an AbortedError", err)
					}
				} else if _, err := in.Next(); err != io.EOF {
					t.Errorf("Next after %d items: %v, want EOF", items, err)
				}
				if !bytes.Equal(got.Sum(nil), want.Sum(nil)) {
					t.Errorf("the %d items pulled through the proxy differ from the generator's", n)
				}

				p.Close()
				if err := stop(); err != nil {
					t.Errorf("Serve: %v", err)
				}
				near.Shutdown()
				far.Shutdown()
				for side, k := range map[string]*kernel.Kernel{"near": near, "far": far} {
					if n := k.Metrics().SlabLeaked.Value(); n != 0 {
						t.Errorf("%s kernel: SlabLeaked = %d", side, n)
					}
				}
				goroutines()
				fds()
			})
		}
	}
}

// TestRemoteSource drives OpenRemote, the Next/Close shape over
// OpenStream on a private kernel: a whole stream, then an unknown spec
// refused.
func TestRemoteSource(t *testing.T) {
	addr, _ := startServer(t)
	p, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()

	src, err := transport.OpenRemote(p, "count 150")
	if err != nil {
		t.Fatalf("OpenRemote: %v", err)
	}
	var got []string
	for {
		it, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, strings.TrimSpace(string(it)))
	}
	if len(got) != 150 || got[0] != "0" || got[149] != "149" {
		t.Fatalf("got %d items (%v...)", len(got), got[:min(3, len(got))])
	}
	if err := src.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if _, err := transport.OpenRemote(p, "bogus spec"); err == nil {
		t.Fatal("expected error for bad spec")
	}
}

// bridgeShapes is every payload shape the bridge carries on a fast path
// or the gob fallback; FuzzRecords seeds from it too.  spliced is
// the one that arrives through a proxy: an ItemsMarshaler with items on
// both sides of wire.SpliceCutoff.
var bridgeShapes = []struct {
	name string
	v    any
}{
	{"bytes", []byte("sixty-four bytes would be the benchmark's; these are fewer")},
	{"string", "a string"},
	{"int64", int64(-1 << 40)},
	{"items", [][]byte{[]byte("a"), nil, []byte("ccc")}},
	{"nil", nil},
	{"bytes-1MiB", bytes.Repeat([]byte{0xa5}, 1<<20)},
}

var spliced = &transput.TransferReply{Base: 7, Backlog: 300, Items: [][]byte{
	bytes.Repeat([]byte{1}, wire.SpliceCutoff-1),
	bytes.Repeat([]byte{2}, wire.SpliceCutoff),
	[]byte("small"),
	bytes.Repeat([]byte{3}, 4*wire.SpliceCutoff),
}}

// viaCodec is what one encode and one decode make of v: the bridge
// must hand the far kernel, and hand back, exactly that.
func viaCodec(t *testing.T, v any) any {
	t.Helper()
	enc, err := wire.Append(nil, v)
	if err != nil {
		t.Fatalf("Append(%T): %v", v, err)
	}
	got, _, err := wire.Decode(enc)
	if err != nil {
		t.Fatalf("Decode(%T): %v", v, err)
	}
	return got
}

// TestBridgeShapes sends each shape through Peer.Invoke to an echo, and
// a TransferReply with items on both sides of wire.SpliceCutoff through
// a proxy (an ItemsMarshaler nested in the request and in the reply).
func TestBridgeShapes(t *testing.T) {
	addr, echo := startServer(t)
	p, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()
	for _, sh := range bridgeShapes {
		got, err := p.Invoke(echo, "Echo", sh.v)
		if err != nil {
			t.Errorf("%s: %v", sh.name, err)
		} else if want := viaCodec(t, sh.v); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %T %.40v, want %T %.40v", sh.name, got, got, want, want)
		}
	}

	local := kernel.New(kernel.Config{})
	defer local.Shutdown()
	if err := transport.AttachProxy(local, p, echo, 0); err != nil {
		t.Fatalf("AttachProxy: %v", err)
	}
	got, err := local.Invoke(uid.Nil, echo, "Echo", spliced)
	if err != nil {
		t.Fatalf("TransferReply via proxy: %v", err)
	}
	if want := viaCodec(t, spliced); !reflect.DeepEqual(got, want) {
		t.Errorf("TransferReply via proxy: got %T, want %T with the same fields", got, want)
	}
}

// TestBridgeValueRecordCopiesThroughTheArena: a TransferReply carried as
// a bridge value decodes by the read loop's rule (wire.DecodeIn with its
// arena): its small items land side by side in one arena block, and its
// large ones are copies of their own, not slab views.
func TestBridgeValueRecordCopiesThroughTheArena(t *testing.T) {
	enc, err := wire.Append(nil, &transport.RPCReply{ID: 1, Value: spliced})
	if err != nil {
		t.Fatal(err)
	}
	var arena wire.Arena
	v, _, err := wire.DecodeIn(enc, &arena)
	if err != nil {
		t.Fatal(err)
	}
	items := v.(*transport.RPCReply).Value.(*transput.TransferReply).Items
	if !reflect.DeepEqual(items, spliced.Items) {
		t.Fatal("the nested reply's items differ from the ones sent")
	}
	// spliced's items are SpliceCutoff-1, SpliceCutoff, 5 and
	// 4*SpliceCutoff bytes long.
	if end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(items[0])), len(items[0])); end != unsafe.Pointer(unsafe.SliceData(items[2])) {
		t.Error("the small items are not side by side in one arena block")
	}
	for _, i := range []int{1, 3} {
		if wire.IsView(items[i]) {
			t.Errorf("the %d B item is a slab view", len(items[i]))
		}
	}
}

// TestBridgeInvokeAllocs holds the round trip to its boxes: the
// caller's, and the one each decoder puts its value in.  The records
// come from pools, the Op from the intern table, and a small value's
// bytes from the read loop's arena block; a value of SpliceCutoff or
// more gets an allocation of its own on each side.  Both ends are in
// this process, so AllocsPerRun counts both.
func TestBridgeInvokeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	addr, echo := startServer(t)
	p, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()
	for _, tc := range []struct {
		size    int
		ceiling float64
	}{{64, 3}, {16 << 10, 6}} {
		payload := make([]byte, tc.size)
		op := func() {
			if _, err := p.Invoke(echo, "Echo", payload); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 256; i++ {
			op()
		}
		if got := testing.AllocsPerRun(500, op); got > tc.ceiling {
			t.Errorf("%d B bridge round trip: %.2f allocs, want <= %.0f", tc.size, got, tc.ceiling)
		}
	}
}

// TestBridgeOpInternIsBounded: peers that send 10 000 distinct ops get
// each its Eject's answer, naming that op, under its own id; the intern
// table, which every connection's read loop shares, stops at its bound
// and not in memory; and an op interned before the flood still decodes
// to the table's one string after it.
func TestBridgeOpInternIsBounded(t *testing.T) {
	transport.FreshOps(t)
	addr, _ := startServer(t)
	peers := make([]*transport.Peer, 4)
	for i := range peers {
		p, err := transport.Dial(addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer p.Close()
		peers[i] = p
	}
	src, err := transport.OpenRemote(peers[0], "count 1") // interns Remote.Open
	if err != nil {
		t.Fatal(err)
	}
	_ = src.Close()

	const flood, callers = 10000, 8
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := peers[c%len(peers)]
			for i := c; i < flood; i += callers {
				op := fmt.Sprintf("Flood.%05d", i)
				if i%100 == 0 {
					op += strings.Repeat("-", 64) // over the length bound
				}
				_, err := p.Invoke(transport.ControlUID, op, "x")
				if !errors.Is(err, kernel.ErrNoSuchOperation) || !strings.HasSuffix(err.Error(), fmt.Sprintf("%q on the remote control", op)) {
					errc <- fmt.Errorf("op %s: err = %v, want the control Eject's unknown op", op, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := transport.InternedOps(); n != transport.MaxInternedOps {
		t.Errorf("%d ops interned after %d distinct ones, want the bound %d", n, flood, transport.MaxInternedOps)
	}

	request := func(op string) *transport.RPCRequest {
		enc, err := wire.Append(nil, &transport.RPCRequest{ID: 1, Op: op, Value: "x"})
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := wire.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		return v.(*transport.RPCRequest)
	}
	if a, b := request("Remote.Open"), request("Remote.Open"); unsafe.StringData(a.Op) != unsafe.StringData(b.Op) {
		t.Error("Remote.Open, interned before the flood, decodes to a fresh string after it")
	}
	if a, b := request("After.Flood"), request("After.Flood"); unsafe.StringData(a.Op) == unsafe.StringData(b.Op) {
		t.Error("an op new after the flood was interned past the bound")
	}
	if n := transport.InternedOps(); n != transport.MaxInternedOps {
		t.Errorf("%d ops interned, want the bound %d", n, transport.MaxInternedOps)
	}
}

// gateEject parks every invocation until the gate opens, then echoes.
// startWorkerRig's kernel gives it a pool that admits the whole burst,
// so entered counts invocations that each hold one of the bridge
// connection's workers.
type gateEject struct {
	entered chan struct{}
	open    chan struct{}
}

func (g *gateEject) EdenType() string { return "test.Gate" }

func (g *gateEject) Serve(inv *kernel.Invocation) {
	g.entered <- struct{}{}
	<-g.open
	inv.Reply(inv.Payload)
}

// workerRig is a serving kernel with an echo and a gate Eject, and one
// Peer connected to it.
type workerRig struct {
	k          *kernel.Kernel
	echo, gate uid.UID
	g          *gateEject
	p          *transport.Peer
	stop       func() error // closes the listener and returns what Serve did
}

func startWorkerRig(t *testing.T, burst int) *workerRig {
	t.Helper()
	r := &workerRig{k: kernel.New(kernel.Config{WorkersPerEject: burst})}
	r.g = &gateEject{entered: make(chan struct{}, burst), open: make(chan struct{})}
	var err error
	if r.echo, err = r.k.Create(echoEject{}, 0); err != nil {
		t.Fatal(err)
	}
	if r.gate, err = r.k.Create(r.g, 0); err != nil {
		t.Fatal(err)
	}
	r.p, r.stop = serveAndDial(t, r.k)
	return r
}

func (r *workerRig) echoes(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if res, err := r.p.Invoke(r.echo, "Echo", "e"); err != nil || res != "e" {
			t.Fatalf("echo: %v, %v", res, err)
		}
	}
}

// park starts n invocations of the gate and returns once all of them
// are inside it.  drain opens the gate and checks that each comes back
// with its own payload.
func (r *workerRig) park(t *testing.T, n int) (drain func()) {
	var wg sync.WaitGroup
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("parked-%d", i)
			if res, err := r.p.Invoke(r.gate, "Wait", want); err != nil || res != want {
				errc <- fmt.Errorf("parked %d: got %v, %v", i, res, err)
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-r.g.entered
	}
	return func() {
		close(r.g.open)
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	}
}

// TestBridgeParkedInvocationDoesNotBlockConnection: a parked invocation
// holds a worker and never the read loop, so behind a burst of them an
// echo on the same Peer still completes.
func TestBridgeParkedInvocationDoesNotBlockConnection(t *testing.T) {
	const burst = 64
	r := startWorkerRig(t, burst)
	defer r.k.Shutdown()
	defer r.stop()
	defer r.p.Close()
	drain := r.park(t, burst)
	r.echoes(t, 1)
	drain()
}

// TestBridgeWorkersReturnToBaseline: the workers a burst needed are
// given back — all but the idle bound once it drains, after which a
// steady caller starts no goroutine, and the rest with the connection,
// whose socket is closed on both ends.
func TestBridgeWorkersReturnToBaseline(t *testing.T) {
	const burst = 64
	goroutines := quiesce.Baseline(t)
	fds := quiesce.FDs(t)
	r := startWorkerRig(t, burst)
	r.echoes(t, 1)
	before := runtime.NumGoroutine()

	r.park(t, burst)()
	limit := before + transport.MaxIdleWorkers
	if n := quiesce.Goroutines(limit); n > limit {
		t.Errorf("%d goroutines after the burst drained, %d before it: more than %d workers kept", n, before, transport.MaxIdleWorkers)
	}
	steady := runtime.NumGoroutine()
	r.echoes(t, 1000)
	if n := runtime.NumGoroutine(); n > steady {
		t.Errorf("1000 sequential echoes took the goroutine count from %d to %d", steady, n)
	}

	r.p.Close()
	if err := r.stop(); err != nil {
		t.Errorf("Serve: %v", err)
	}
	r.k.Shutdown()
	goroutines()
	fds()
}

// TestBridgeNestedDecodeErrorIsPerRequest speaks the wire by hand: a
// well-framed request whose nested frame is malformed is answered with
// an error under its own id, and the connection carries on.
func TestBridgeNestedDecodeErrorIsPerRequest(t *testing.T) {
	addr, echo := startServer(t)
	conn, err := net.Dial("unix", strings.TrimPrefix(addr, "unix:"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	good, _ := wire.Append(nil, "still here")
	nested := map[uint64][]byte{
		1: {0xff, 0, 0, 0, 0},                      // no such tag
		2: append(append([]byte(nil), good...), 0), // a byte after the nested frame
		3: good[:len(good)-1],                      // truncated
		4: nestedRecords(33, []byte{1, 0}, 3),      // a bridge record as the value
		5: good,
	}
	last := uint64(len(nested))
	var out []byte
	for id := uint64(1); id <= last; id++ {
		// bridge.go's request layout, by hand.
		body := wire.AppendUvarintField(nil, id)
		t16 := echo.Bytes()
		body = append(body, t16[:]...)
		body = wire.AppendStringField(body, "Echo")
		out = append(out, recordFrame(32, append(body, nested[id]...))...)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(conn, nil, 0)
	defer fr.Close()
	seen := map[uint64]bool{}
	for len(seen) < len(nested) { // replies come in any order
		v, _, err := fr.Next()
		if err != nil {
			t.Fatalf("after %d replies: %v", len(seen), err)
		}
		rep, ok := v.(*transport.RPCReply)
		if !ok || seen[rep.ID] {
			t.Fatalf("unexpected frame %T %+v", v, v)
		}
		seen[rep.ID] = true
		if rep.ID == last {
			if rep.Err() != nil || rep.Value != "still here" {
				t.Errorf("good request: err %v, value %v", rep.Err(), rep.Value)
			}
		} else if rep.Err() == nil {
			t.Errorf("request %d: a malformed nested frame was answered with %v", rep.ID, rep.Value)
		}
	}
}

// nestedRecords is depth bridge records of the given id, each with the
// same fields and the next as its value, around a string — what no
// encoder here produces, built from the innermost frame outwards.
func nestedRecords(id byte, fields []byte, depth int) []byte {
	leaf, _ := wire.Append(nil, "leaf")
	per := wire.HeaderBytes + 1 + len(fields)
	buf := make([]byte, depth*per+len(leaf))
	copy(buf[depth*per:], leaf)
	for off := (depth - 1) * per; off >= 0; off -= per {
		buf[off] = wire.TagRecord
		binary.BigEndian.PutUint32(buf[off+1:], uint32(len(buf)-off-wire.HeaderBytes))
		buf[off+wire.HeaderBytes] = id
		copy(buf[off+wire.HeaderBytes+1:], fields)
	}
	return buf
}

// TestBridgeRecordsDoNotNest: a bridge record whose value is a bridge
// record is malformed at the second level, however many follow.  One
// frame under wire.MaxFrameBytes holds millions of levels; decoding
// them by recursion would end the process (a stack overflow is not a
// panic), on the strength of one frame from a peer.
func TestBridgeRecordsDoNotNest(t *testing.T) {
	const depth = 4 << 20
	request := append([]byte{1}, make([]byte, 16+1)...) // ID 1, a zero Target, Op ""
	for _, tc := range []struct {
		name   string
		id     byte
		fields []byte
		depth  int
	}{
		{"reply", 33, []byte{1, 0}, depth}, // ID 1, Msg ""
		{"request", 32, request, depth / 4},
	} {
		frame := nestedRecords(tc.id, tc.fields, tc.depth)
		if len(frame) > wire.MaxFrameBytes {
			t.Fatalf("%s: the rig's frame is %d bytes, more than a FrameReader admits", tc.name, len(frame))
		}
		v, _, err := wire.Decode(frame)
		if err != nil {
			t.Fatalf("%s: %v; the outer record is well formed", tc.name, err)
		}
		if err := recordErr(v); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: %d nested records decoded with err = %v, want ErrMalformed", tc.name, tc.depth, err)
		}
	}
	// Each inside the other, too.
	mixed := recordFrame(33, append([]byte{1, 0}, nestedRecords(32, request, 1)...))
	if v, _, err := wire.Decode(mixed); err != nil || !errors.Is(recordErr(v), wire.ErrMalformed) {
		t.Errorf("a request as a reply's value: %v, %v", v, err)
	}
}

// TestBridgeUnencodableResult: a value with no wire form fails its own
// call, on whichever side it turns up, and not the connection.
func TestBridgeUnencodableResult(t *testing.T) {
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	echo, err := k.Create(echoEject{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	chanReply, err := k.Create(chanEject{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := serveAndDial(t, k)
	defer p.Close()

	if _, err := p.Invoke(chanReply, "Chan", "x"); !errors.As(err, new(*kernel.RemoteError)) {
		t.Errorf("a chan result: err = %v, want the remote side's encode failure", err)
	}
	if _, err := p.Invoke(echo, "Echo", make(chan int)); err == nil || errors.Is(err, transport.ErrBridgeClosed) {
		t.Errorf("a chan payload: err = %v, want an encode failure that does not blame the connection", err)
	}
	if res, err := p.Invoke(echo, "Echo", "after"); err != nil || res != "after" {
		t.Errorf("the call after: %v, %v", res, err)
	}
}

// chanEject replies with a value the codec cannot carry.
type chanEject struct{}

func (chanEject) EdenType() string             { return "test.Chan" }
func (chanEject) Serve(inv *kernel.Invocation) { inv.Reply(make(chan int)) }

// TestBridgeClosedIsNotRemote: however a dead connection fails a call —
// pending when it died, refused on entry, or refused by the write side
// — the error is the connection's, matchable, and not one the remote
// kernel answered.
func TestBridgeClosedIsNotRemote(t *testing.T) {
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	g := &gateEject{entered: make(chan struct{}, 1), open: make(chan struct{})}
	gate, err := k.Create(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer close(g.open)
	p, _ := serveAndDial(t, k)

	pending := make(chan error, 1)
	go func() {
		_, err := p.Invoke(gate, "Wait", "x")
		pending <- err
	}()
	<-g.entered
	p.Close()
	// Pending's return orders the read loop's end before the next call,
	// which is therefore refused on entry.
	errs := map[string]error{"pending": <-pending}
	_, errs["on entry"] = p.Invoke(gate, "Wait", "x")
	_, errs["in send"] = transport.ClosedPeer().Invoke(gate, "Wait", "x")
	for how, err := range errs {
		if !errors.Is(err, transport.ErrBridgeClosed) || errors.As(err, new(*kernel.RemoteError)) {
			t.Errorf("%s: err = %v, want one wrapping ErrBridgeClosed that is not a *kernel.RemoteError", how, err)
		}
	}
}

// TestMultiProcessSoak is the nightly soak: a real second OS process
// serves the bridge (this test binary re-executed in server mode) and
// the client hammers it over UDS and TCP.  Gated behind TRANSPORT_SOAK
// like GATEWAY_SOAK; run with -race.
func TestMultiProcessSoak(t *testing.T) {
	if os.Getenv("TRANSPORT_SOAK") == "" {
		t.Skip("set TRANSPORT_SOAK=1 to run the multi-process soak")
	}
	for _, mode := range []string{"unix", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			var addr string
			if mode == "unix" {
				addr = "unix:" + filepath.Join(t.TempDir(), "soak.sock")
			} else {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addr = "tcp:" + ln.Addr().String()
				ln.Close() // freed port; small race, acceptable for a soak rig
			}
			cmd := exec.Command(os.Args[0], "-test.run", "TestSoakServerProcess", "-test.v")
			cmd.Env = append(os.Environ(), "TRANSPORT_SOAK_SERVER="+addr)
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = cmd.Stdout
			if err := cmd.Start(); err != nil {
				t.Fatalf("start server process: %v", err)
			}
			defer func() {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}()
			go io.Copy(io.Discard, out)

			// Wait for the server socket to come up.
			var p *transport.Peer
			deadline := time.Now().Add(10 * time.Second)
			for {
				p, err = transport.Dial(addr)
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("server never came up: %v", err)
				}
				time.Sleep(50 * time.Millisecond)
			}
			defer p.Close()

			// The server publishes its echo UID via a remote stream.
			near := kernel.New(kernel.Config{})
			defer near.Shutdown()
			src, err := transport.OpenStream(near, p, "echo-uid")
			if err != nil {
				t.Fatalf("OpenStream(echo-uid): %v", err)
			}
			raw, err := src.Next()
			if err != nil {
				t.Fatalf("read echo uid: %v", err)
			}
			echo, err := uid.ParseUID(strings.TrimSpace(string(raw)))
			if err != nil {
				t.Fatalf("parse echo uid %q: %v", raw, err)
			}
			if err := transport.CloseStream(near, src); err != nil {
				t.Fatal(err)
			}

			// Windowed pulls run for as long as the invoke storm does, so
			// their Transfers and the echoes share both coalescers.
			const workers, per, streamed = 16, 500, 1000
			stream := func() error {
				in, err := transport.OpenStream(near, p, fmt.Sprintf("count %d", streamed))
				if err != nil {
					return err
				}
				defer transport.CloseStream(near, in)
				for i := 0; i < streamed; i++ {
					if item, err := in.Next(); err != nil || string(item) != fmt.Sprintf("%d\n", i) {
						return fmt.Errorf("streamed item %d: %q, %v", i, item, err)
					}
				}
				if _, err := in.Next(); err != io.EOF {
					return fmt.Errorf("after %d items: %v, want EOF", streamed, err)
				}
				return nil
			}
			var storm sync.WaitGroup
			errc := make(chan error, workers+1)
			for w := 0; w < workers; w++ {
				storm.Add(1)
				go func(w int) {
					defer storm.Done()
					for i := 0; i < per; i++ {
						msg := fmt.Sprintf("soak-%d-%d", w, i)
						res, err := p.Invoke(echo, "Echo", msg)
						if err != nil {
							errc <- err
							return
						}
						if res != msg {
							errc <- fmt.Errorf("got %v want %v", res, msg)
							return
						}
					}
				}(w)
			}
			stormDone := make(chan struct{})
			go func() { storm.Wait(); close(stormDone) }()
			streams := 0
			for storming := true; storming; streams++ {
				select {
				case <-stormDone:
					storming = false // one more stream, then stop
				default:
				}
				if err := stream(); err != nil {
					errc <- err
					break
				}
			}
			<-stormDone
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			t.Logf("%d streams of %d items pulled during the storm", streams, streamed)
		})
	}
}

// uidSource hands the server's echo UID to the client as a one-item
// stream (the soak's bootstrap, standing in for a directory Eject).
type uidSource struct {
	id   uid.UID
	done bool
}

func (u *uidSource) Next() ([]byte, error) {
	if u.done {
		return nil, io.EOF
	}
	u.done = true
	return []byte(u.id.String()), nil
}

func (u *uidSource) Close() error { return nil }

// TestSoakServerProcess is the soak's server half; it only runs when
// re-executed by TestMultiProcessSoak.
func TestSoakServerProcess(t *testing.T) {
	addr := os.Getenv("TRANSPORT_SOAK_SERVER")
	if addr == "" {
		t.Skip("not a server process")
	}
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	echo, err := k.Create(echoEject{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = transport.RegisterControl(k, func(spec string) (transport.ItemSource, error) {
		if spec == "echo-uid" {
			return &uidSource{id: echo}, nil
		}
		return openCount(spec)
	})
	if err != nil {
		t.Fatal(err)
	}
	network, target := "tcp", addr
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, target = "unix", rest
	} else if rest, ok := strings.CutPrefix(addr, "tcp:"); ok {
		target = rest
	}
	ln, err := net.Listen(network, target)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Serve until the parent kills the process.
	_ = transport.Serve(ln, k)
}

// failEject fails every invocation with its error.
type failEject struct{ err error }

func (failEject) EdenType() string               { return "test.Fail" }
func (e failEject) Serve(inv *kernel.Invocation) { inv.Fail(e.err) }

// TestBridgeErrorsKeepTheirIdentity: a failure crosses the bridge in the
// kernel's own wire form, so Peer.Invoke and an invocation through a
// proxy return the error the far kernel's own Invoke does — matching
// every row of the code table with errors.Is, and reading the same.
func TestBridgeErrorsKeepTheirIdentity(t *testing.T) {
	far := kernel.New(kernel.Config{})
	defer far.Shutdown()
	near := kernel.New(kernel.Config{})
	defer near.Shutdown()
	if err := transport.RegisterControl(far, openCount); err != nil {
		t.Fatal(err)
	}
	p, _ := serveAndDial(t, far)
	defer p.Close()

	rows := []error{kernel.ErrNoSuchEject, kernel.ErrNoSuchOperation, kernel.ErrNoReply,
		kernel.ErrDeactivated, kernel.ErrKernelDown, kernel.ErrNotCheckpointable,
		kernel.ErrUnknownType, netsim.ErrDropped, netsim.ErrPartitioned, transport.ErrBridgeClosed}
	for _, row := range rows {
		id, err := far.Create(failEject{fmt.Errorf("test: %w", row)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.AttachProxy(near, p, id, 0); err != nil {
			t.Fatal(err)
		}
		_, viaPeer := p.Invoke(id, "Op", "x")
		_, viaProxy := near.Invoke(uid.Nil, id, "Op", "x")
		if !errors.Is(viaPeer, row) || !errors.Is(viaProxy, row) {
			t.Errorf("%v: Peer.Invoke %v, through a proxy %v", row, viaPeer, viaProxy)
		}
	}

	// A failure with no message still fails the call.
	silent, err := far.Create(failEject{errors.New("")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(silent, "Op", "x"); err == nil {
		t.Error("a failure with an empty message crossed as a success")
	}

	missing := uid.UID{Hi: 0xdead, Lo: 0xbeef}
	for _, id := range []uid.UID{missing, transport.ControlUID} {
		if err := transport.AttachProxy(near, p, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		target uid.UID
		op     string
		want   error
	}{{missing, "Echo", kernel.ErrNoSuchEject}, {transport.ControlUID, "Remote.Shutdown", kernel.ErrNoSuchOperation}} {
		_, local := far.Invoke(uid.Nil, c.target, c.op, "x")
		_, viaPeer := p.Invoke(c.target, c.op, "x")
		_, viaProxy := near.Invoke(uid.Nil, c.target, c.op, "x")
		if !errors.Is(local, c.want) || errText(viaPeer) != local.Error() || errText(viaProxy) != local.Error() {
			t.Errorf("%s on %v:\n local      %v\n Peer.Invoke %v\n via proxy  %v", c.op, c.target, local, viaPeer, viaProxy)
		}
	}

	// A proxy whose connection died fails with the connection's error.
	p.Close()
	if _, err := near.Invoke(uid.Nil, transport.ControlUID, "Remote.Open", "count 1"); !errors.Is(err, transport.ErrBridgeClosed) {
		t.Errorf("through a proxy on a closed connection: %v", err)
	}
}
