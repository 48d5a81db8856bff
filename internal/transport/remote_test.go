package transport_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/transport"
	"asymstream/internal/uid"
)

// notifySource is a countSource that reports its Close calls, so tests
// can observe server-side teardown.
type notifySource struct {
	i, n    int
	onClose func()
}

func (s *notifySource) Next() ([]byte, error) {
	if s.i >= s.n {
		return nil, io.EOF
	}
	it := []byte(fmt.Sprintf("%d\n", s.i))
	s.i++
	return it, nil
}

func (s *notifySource) Close() error {
	s.onClose()
	return nil
}

// startTrackedServer boots a serving kernel whose control Eject opens
// sources through open, returning the dial address and the kernel.
func startTrackedServer(t *testing.T, open transport.OpenFunc) (string, *kernel.Kernel) {
	t.Helper()
	k := kernel.New(kernel.Config{})
	t.Cleanup(k.Shutdown)
	if err := transport.RegisterControl(k, open); err != nil {
		t.Fatalf("RegisterControl: %v", err)
	}
	sock := filepath.Join(t.TempDir(), "remote.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = transport.Serve(ln, k) }()
	return "unix:" + sock, k
}

// TestDisconnectClosesSources pins the connection-teardown sweep: a
// client that drops its bridge connection without Remote.Close must
// not strand ItemSources in the serving kernel, and sources the client
// did close must not be closed a second time by the sweep.
func TestDisconnectClosesSources(t *testing.T) {
	var mu sync.Mutex
	closed := 0
	addr, k := startTrackedServer(t, func(spec string) (transport.ItemSource, error) {
		return &notifySource{n: 100, onClose: func() {
			mu.Lock()
			closed++
			mu.Unlock()
		}}, nil
	})

	p, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var srcs []*transport.RemoteSource
	for i := 0; i < 3; i++ {
		src, err := transport.OpenRemote(p, "stream")
		if err != nil {
			t.Fatalf("OpenRemote %d: %v", i, err)
		}
		if _, err := src.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		srcs = append(srcs, src)
	}
	// One source is closed properly; the other two ride on the sweep.
	if err := srcs[0].Close(); err != nil {
		t.Fatalf("explicit Close: %v", err)
	}
	p.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := closed
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after disconnect %d of 3 sources closed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The sweep is idempotent with the explicit Close: never a fourth.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	n := closed
	mu.Unlock()
	if n != 3 {
		t.Fatalf("closed %d times, want exactly 3", n)
	}
	if leaked := k.Metrics().SlabLeaked.Value(); leaked != 0 {
		t.Fatalf("SlabLeaked = %d after disconnect sweep", leaked)
	}
}

// TestRemoteNextAfterClose drives the source Eject's protocol directly:
// once Remote.Close has run, Remote.Next must yield no items (an empty
// batch, or an unknown-UID error once the async destroy lands) and a
// second Remote.Close must succeed without touching the source again.
func TestRemoteNextAfterClose(t *testing.T) {
	var mu sync.Mutex
	closed := 0
	addr, k := startTrackedServer(t, func(spec string) (transport.ItemSource, error) {
		return &notifySource{n: 100, onClose: func() {
			mu.Lock()
			closed++
			mu.Unlock()
		}}, nil
	})
	_ = addr

	res, err := k.Invoke(uid.Nil, transport.ControlUID, "Remote.Open", "stream")
	if err != nil {
		t.Fatalf("Remote.Open: %v", err)
	}
	raw, ok := res.([]byte)
	if !ok || len(raw) != 16 {
		t.Fatalf("Remote.Open returned %T", res)
	}
	var b [16]byte
	copy(b[:], raw)
	id := uid.FromBytes(b)

	if _, err := k.Invoke(uid.Nil, id, "Remote.Close", ""); err != nil {
		t.Fatalf("Remote.Close: %v", err)
	}
	if res, err := k.Invoke(uid.Nil, id, "Remote.Next", int64(8)); err == nil {
		items, ok := res.([][]byte)
		if !ok {
			t.Fatalf("Remote.Next after close returned %T", res)
		}
		if len(items) != 0 {
			t.Fatalf("Remote.Next after close yielded %d items", len(items))
		}
	}
	// Second close: idempotent whether or not the destroy landed.
	if res, err := k.Invoke(uid.Nil, id, "Remote.Close", ""); err == nil {
		if res != "closed" {
			t.Fatalf("second Remote.Close replied %v", res)
		}
	}
	mu.Lock()
	n := closed
	mu.Unlock()
	if n != 1 {
		t.Fatalf("source closed %d times, want 1", n)
	}
}

// TestRemoteBadRequests covers the control plane's refusals: unknown
// target UIDs, malformed Remote.Open payloads and unknown ops come back
// as errors — the kernel's sentinel where there is one — not hangs or
// torn connections.
func TestRemoteBadRequests(t *testing.T) {
	addr, _ := startTrackedServer(t, openCount)
	p, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()

	if _, err := p.Invoke(uid.UID{Hi: 0xdead, Lo: 0xbeef}, "Remote.Next", int64(1)); !errors.Is(err, kernel.ErrNoSuchEject) {
		t.Fatalf("Remote.Next on unknown UID: %v, want ErrNoSuchEject", err)
	}
	if _, err := p.Invoke(transport.ControlUID, "Remote.Open", int64(7)); err == nil {
		t.Fatal("Remote.Open with non-string spec succeeded")
	}
	if _, err := p.Invoke(transport.ControlUID, "Remote.Shutdown", "x"); !errors.Is(err, kernel.ErrNoSuchOperation) {
		t.Fatalf("unknown control op: %v, want ErrNoSuchOperation", err)
	}
	// The connection survives all three refusals.
	if _, err := transport.OpenRemote(p, "count 3"); err != nil {
		t.Fatalf("OpenRemote after refusals: %v", err)
	}
}

// TestPeerDisconnectMidStream kills the client connection with a
// stream half-read: the client's Next must fail fast (no hang, no
// silent EOF) and the server sweep must still reclaim the source.
func TestPeerDisconnectMidStream(t *testing.T) {
	var mu sync.Mutex
	closed := 0
	addr, _ := startTrackedServer(t, func(spec string) (transport.ItemSource, error) {
		return &notifySource{n: 1 << 20, onClose: func() {
			mu.Lock()
			closed++
			mu.Unlock()
		}}, nil
	})

	p, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	src, err := transport.OpenRemote(p, "stream")
	if err != nil {
		t.Fatalf("OpenRemote: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	p.Close()

	// Drain the batched items; the next wire fetch must error.
	var nextErr error
	for i := 0; i < 1024; i++ {
		if _, nextErr = src.Next(); nextErr != nil {
			break
		}
	}
	if nextErr == nil {
		t.Fatal("Next kept succeeding after the peer closed")
	}
	if nextErr == io.EOF {
		t.Fatal("Next reported a clean EOF for a torn connection")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := closed
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server source not reclaimed after disconnect (closed=%d)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
