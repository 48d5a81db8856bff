package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/quiesce"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
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

// dialNear connects a client kernel to addr; both close at cleanup.
func dialNear(t *testing.T, addr string) (*kernel.Kernel, *transport.Peer) {
	t.Helper()
	p, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	near := kernel.New(kernel.Config{})
	t.Cleanup(func() { p.Close(); near.Shutdown() })
	return near, p
}

// eventually polls cond for up to 5 s and fails t with what if it never
// holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never: %s", what)
		}
	}
}

// TestRemoteStreamTeardown: a remote stream is left three ways — read
// to its end and closed, closed part-way, and abandoned by a dropped
// connection — over unix and over tcp.  Each closes the far source
// once and destroys the far stage and the near proxy; both kernels'
// slab audits read zero, and goroutines and fds are back at their
// baselines once the bridge is torn down.
func TestRemoteStreamTeardown(t *testing.T) {
	const items = 500
	for _, kind := range kinds {
		for _, how := range []string{"eof", "early", "drop"} {
			t.Run(kind+"/"+how, func(t *testing.T) {
				goroutines := quiesce.Baseline(t)
				fds := quiesce.FDs(t)

				var closed atomic.Int32
				far := kernel.New(kernel.Config{})
				err := transport.RegisterControl(far, func(string) (transport.ItemSource, error) {
					return &notifySource{n: items, onClose: func() { closed.Add(1) }}, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				addr, stop := serveOn(t, far, kind)
				p, err := transport.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				near := kernel.New(kernel.Config{})
				in, err := transport.OpenStream(near, p, "stream")
				if err != nil {
					t.Fatal(err)
				}
				n := items
				if how != "eof" {
					n = items / 3
				}
				for i := 0; i < n; i++ {
					if item, err := in.Next(); err != nil || string(item) != fmt.Sprintf("%d\n", i) {
						t.Fatalf("Next %d: %q, %v", i, item, err)
					}
				}
				switch how {
				case "eof":
					if _, err := in.Next(); err != io.EOF {
						t.Fatalf("Next after %d items: %v, want EOF", items, err)
					}
				case "drop":
					p.Close()
				}
				err = transport.CloseStream(near, in)
				if how == "drop" {
					if !errors.Is(err, transport.ErrBridgeClosed) {
						t.Errorf("CloseStream over a dropped connection: %v, want ErrBridgeClosed", err)
					}
				} else if err != nil {
					t.Errorf("CloseStream: %v", err)
				}
				// The control Eject is all the far kernel has left.
				eventually(t, "far source closed and its stage destroyed", func() bool {
					return closed.Load() == 1 && far.ActiveCount() == 1
				})
				if n := near.ActiveCount(); n != 0 {
					t.Errorf("%d Ejects left in the near kernel, want 0 (the proxy destroyed)", n)
				}

				p.Close()
				if err := stop(); err != nil {
					t.Errorf("Serve: %v", err)
				}
				near.Shutdown()
				far.Shutdown()
				if n := closed.Load(); n != 1 {
					t.Errorf("source closed %d times, want 1", n)
				}
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

// TestCloseUnpulledRemoteStream: CloseStream on a remote stream that
// nothing ever pulled closes its source exactly once — its lazy body
// runs when the far control Eject's Remote.Close destroys its pipeline —
// and leaves the control Eject alone in the far kernel; a second
// Remote.Close with the stream's grant answers ErrNoSuchEject.  Over unix and
// tcp, with the slab audits at zero and goroutines and fds back at their
// baselines.
func TestCloseUnpulledRemoteStream(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			goroutines := quiesce.Baseline(t)
			fds := quiesce.FDs(t)

			var closed atomic.Int32
			far := kernel.New(kernel.Config{})
			err := transport.RegisterControl(far, func(string) (transport.ItemSource, error) {
				return &notifySource{n: 100, onClose: func() { closed.Add(1) }}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			addr, stop := serveOn(t, far, kind)
			p, err := transport.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			near := kernel.New(kernel.Config{})
			in, err := transport.OpenStream(near, p, "stream")
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			if n, c := far.Metrics().TransferInvocations.Value(), closed.Load(); n != 0 || c != 0 {
				t.Fatalf("before any pull: %d Transfers served, source closed %d times", n, c)
			}
			if err := transport.CloseStream(near, in); err != nil {
				t.Fatalf("CloseStream: %v", err)
			}
			eventually(t, "far source closed and its stage destroyed", func() bool {
				return closed.Load() == 1 && far.ActiveCount() == 1
			})
			if n := near.ActiveCount(); n != 0 {
				t.Errorf("%d Ejects left in the near kernel, want 0 (the proxy destroyed)", n)
			}
			stage, cp := in.Source().Bytes(), in.Channel().Cap.Bytes()
			if _, err := p.Invoke(transport.ControlUID, "Remote.Close", append(stage[:], cp[:]...)); !errors.Is(err, kernel.ErrNoSuchEject) {
				t.Errorf("second Remote.Close: %v, want ErrNoSuchEject", err)
			}

			p.Close()
			if err := stop(); err != nil {
				t.Errorf("Serve: %v", err)
			}
			near.Shutdown()
			far.Shutdown()
			if n := closed.Load(); n != 1 {
				t.Errorf("source closed %d times, want 1", n)
			}
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

// TestDisconnectClosesSources pins the connection-teardown sweep: a
// client that drops its bridge connection without closing its streams
// must not strand ItemSources or stages in the serving kernel — also
// one that was never pulled, so its lazy stage never started — and a
// stream the client did close must not be closed a second time by the
// sweep.
func TestDisconnectClosesSources(t *testing.T) {
	var closed atomic.Int32
	addr, k := startTrackedServer(t, func(spec string) (transport.ItemSource, error) {
		return &notifySource{n: 100, onClose: func() { closed.Add(1) }}, nil
	})
	near, p := dialNear(t, addr)
	var ins []*transput.InPort
	for i := 0; i < 4; i++ {
		in, err := transport.OpenStream(near, p, "stream")
		if err != nil {
			t.Fatalf("OpenStream %d: %v", i, err)
		}
		if i < 3 {
			if _, err := in.Next(); err != nil {
				t.Fatalf("Next %d: %v", i, err)
			}
		}
		ins = append(ins, in)
	}
	// One stream is closed properly; the other three ride on the sweep.
	if err := transport.CloseStream(near, ins[0]); err != nil {
		t.Fatalf("explicit CloseStream: %v", err)
	}
	p.Close()

	eventually(t, "four sources closed and their stages destroyed", func() bool {
		return closed.Load() == 4 && k.ActiveCount() == 1
	})
	// The sweep is idempotent with the explicit close: never a fifth.
	time.Sleep(50 * time.Millisecond)
	if n := closed.Load(); n != 4 {
		t.Fatalf("closed %d times, want exactly 4", n)
	}
	if leaked := k.Metrics().SlabLeaked.Value(); leaked != 0 {
		t.Fatalf("SlabLeaked = %d after disconnect sweep", leaked)
	}
}

// TestRemoteBadRequests covers the control plane's refusals: unknown
// target UIDs, malformed Remote.Open payloads, unknown ops and specs,
// and a stream whose proxy cannot be attached (a kernel opening its own
// stream) come back as errors — the kernel's sentinel where there is
// one — not hangs, torn connections or stranded stages.
func TestRemoteBadRequests(t *testing.T) {
	addr, far := startTrackedServer(t, openCount)
	near, p := dialNear(t, addr)

	if _, err := p.Invoke(uid.UID{Hi: 0xdead, Lo: 0xbeef}, "Remote.Close", ""); !errors.Is(err, kernel.ErrNoSuchEject) {
		t.Fatalf("Remote.Close on unknown UID: %v, want ErrNoSuchEject", err)
	}
	if _, err := p.Invoke(transport.ControlUID, "Remote.Open", int64(7)); err == nil {
		t.Fatal("Remote.Open with non-string spec succeeded")
	}
	if _, err := p.Invoke(transport.ControlUID, "Remote.Shutdown", "x"); !errors.Is(err, kernel.ErrNoSuchOperation) {
		t.Fatalf("unknown control op: %v, want ErrNoSuchOperation", err)
	}
	if _, err := transport.OpenStream(near, p, "bogus spec"); err == nil {
		t.Fatal("OpenStream of an unknown spec succeeded")
	}
	if _, err := transport.OpenStream(far, p, "count 3"); err == nil {
		t.Fatal("OpenStream into the serving kernel itself succeeded")
	}
	if n := far.ActiveCount(); n != 1 {
		t.Fatalf("%d Ejects on the server after a failed attach, want the control alone", n)
	}
	// The connection survives all five refusals.
	in, err := transport.OpenStream(near, p, "count 3")
	if err != nil {
		t.Fatalf("OpenStream after refusals: %v", err)
	}
	if n, err := transput.Drain(in); n != 3 || err != nil {
		t.Fatalf("drained %d items, %v; want 3", n, err)
	}
	if err := transport.CloseStream(near, in); err != nil {
		t.Fatal(err)
	}
}

// TestPeerDisconnectMidStream kills the client connection with a
// stream half-read: the client's Next must fail fast (no hang, no
// silent EOF) and the server sweep must still reclaim the source.
func TestPeerDisconnectMidStream(t *testing.T) {
	var closed atomic.Int32
	addr, k := startTrackedServer(t, func(spec string) (transport.ItemSource, error) {
		return &notifySource{n: 1 << 20, onClose: func() { closed.Add(1) }}, nil
	})
	near, p := dialNear(t, addr)
	in, err := transport.OpenStream(near, p, "stream")
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := in.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	p.Close()

	// Drain what was read ahead; a pull over the dead connection must
	// then error.
	var nextErr error
	for i := 0; i < 1024 && nextErr == nil; i++ {
		_, nextErr = in.Next()
	}
	if nextErr == nil {
		t.Fatal("Next kept succeeding after the peer closed")
	}
	if nextErr == io.EOF {
		t.Fatal("Next reported a clean EOF for a torn connection")
	}
	eventually(t, "server source reclaimed after disconnect", func() bool {
		return closed.Load() == 1 && k.ActiveCount() == 1
	})
	_ = transport.CloseStream(near, in)
}

// failingSource serves n items, then fails with err.
type failingSource struct {
	i, n int
	err  error
}

func (s *failingSource) Next() ([]byte, error) {
	if s.i >= s.n {
		return nil, s.err
	}
	s.i++
	return []byte("x"), nil
}

func (s *failingSource) Close() error { return nil }

// TestRemoteErrorsAreTyped: a remote stream's failures ride the
// channel's own Transfer status, so they arrive typed with no row in
// the kernel's code table.  A source that fails mid-stream ends the
// client's stream with an *AbortedError carrying the far side's
// message.  A capability of a closed stream, pulled from its own stage
// through a fresh proxy, finds the stage destroyed (ErrNoSuchEject);
// quoted to a live stage, it is refused as capability mode refuses any
// it did not mint (ErrNotPermitted); and neither disturbs the live
// stream.
func TestRemoteErrorsAreTyped(t *testing.T) {
	addr, _ := startTrackedServer(t, func(spec string) (transport.ItemSource, error) {
		if spec == "failing" {
			return &failingSource{n: 10, err: errors.New("disk on fire")}, nil
		}
		return openCount(spec)
	})
	near, p := dialNear(t, addr)

	failing, err := transport.OpenStream(near, p, "failing")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 10 && err == nil; i++ {
		_, err = failing.Next()
	}
	var aborted *transput.AbortedError
	if !errors.As(err, &aborted) || aborted.Msg != "disk on fire" || !errors.Is(err, transput.ErrAborted) {
		t.Errorf("a source failing mid-stream: %v, want an AbortedError with the far side's message", err)
	}
	if err := transport.CloseStream(near, failing); err != nil {
		t.Error(err)
	}

	old, err := transport.OpenStream(near, p, "count 3")
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.CloseStream(near, old); err != nil {
		t.Fatal(err)
	}
	live, err := transport.OpenStream(near, p, "count 3")
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.AttachProxy(near, p, old.Source(), 0); err != nil {
		t.Fatal(err)
	}
	gone := transput.NewInPort(near, uid.Nil, old.Source(), old.Channel(), transput.InPortConfig{})
	if _, err := gone.Next(); !errors.Is(err, kernel.ErrNoSuchEject) {
		t.Errorf("a closed stream's capability on its own stage: %v, want ErrNoSuchEject", err)
	}
	_ = near.Destroy(old.Source())
	stale := transput.NewInPort(near, uid.Nil, live.Source(), old.Channel(), transput.InPortConfig{})
	if _, err := stale.Next(); !errors.Is(err, transput.ErrNotPermitted) {
		t.Errorf("a closed stream's capability on a live stage: %v, want ErrNotPermitted", err)
	}
	if n, err := transput.Drain(live); n != 3 || err != nil {
		t.Errorf("the live stream drained %d items, %v; want 3", n, err)
	}
	if err := transport.CloseStream(near, live); err != nil {
		t.Error(err)
	}
}

// reusedBuffer serves n items from one buffer it rewrites every call,
// which ItemSource's ownership rule allows.
type reusedBuffer struct {
	buf  [8]byte
	i, n int
}

func (r *reusedBuffer) Next() ([]byte, error) {
	if r.i >= r.n {
		return nil, io.EOF
	}
	for j := range r.buf {
		r.buf[j] = byte(r.i)
	}
	r.i++
	return r.buf[:], nil
}

func (r *reusedBuffer) Close() error { return nil }

// TestRemoteItemsAreCopied: the server copies each item before the
// source's next Next, so items of a source that reuses one buffer —
// more of them than the channel buffers ahead — arrive each with its
// own bytes.
func TestRemoteItemsAreCopied(t *testing.T) {
	const items = 3 * transput.DefaultCapacity
	addr, _ := startTrackedServer(t, func(string) (transport.ItemSource, error) {
		return &reusedBuffer{n: items}, nil
	})
	near, p := dialNear(t, addr)
	in, err := transport.OpenStream(near, p, "reused")
	if err != nil {
		t.Fatal(err)
	}
	defer transport.CloseStream(near, in)
	for i := 0; ; i++ {
		item, err := in.Next()
		if err == io.EOF {
			if i != items {
				t.Fatalf("%d items, want %d", i, items)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.Repeat([]byte{byte(i)}, 8); !bytes.Equal(item, want) {
			t.Fatalf("item %d = %v, want %v", i, item, want)
		}
	}
}
