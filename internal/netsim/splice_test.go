package netsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"asymstream/internal/filters"
	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/quiesce"
	"asymstream/internal/transput"
	"asymstream/internal/wire"
)

// digestItem adds item to h, length first, so the digest tells a
// stream from its items' concatenation.
func digestItem(h hash.Hash, item []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(item)))
	h.Write(n[:])
	h.Write(item)
}

// runShardedDigest runs source(node 0) | f0 x2 (node 1) | f1 x2 (node 2)
// | sink(node 0) over tr and returns the sink's digest and the slab
// audit after Shutdown.  The filters are identities, so between nodes 1
// and 2 what the splitter, shards and merge forward are the receive
// buffer's own slab views — the payloads a vectored frame borrows.
func runShardedDigest(t *testing.T, tr transput.Transport, d transput.Discipline, itemBytes, items int) ([32]byte, int64) {
	t.Helper()
	k, err := transput.NewTransportKernel(kernel.Config{
		Net: netsim.Config{Nodes: 3, EncodePayloads: true},
	}, tr)
	if err != nil {
		t.Fatalf("NewTransportKernel: %v", err)
	}
	source := func(out transput.ItemWriter) error {
		for i := 0; i < items; i++ {
			item := make([]byte, itemBytes)
			for j := range item {
				item[j] = byte(i + j)
			}
			if err := transput.PutOwned(out, item); err != nil {
				return err
			}
		}
		return nil
	}
	h := sha256.New()
	sink := func(in transput.ItemReader) error {
		for {
			item, err := in.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			digestItem(h, item)
		}
	}
	fs := []transput.Filter{
		{Name: "f0", Body: filters.Identity()},
		{Name: "f1", Body: filters.Identity()},
	}
	p, err := transput.BuildPipeline(k, d, source, fs, sink, transput.Options{
		Batch: 8, Window: 2, Shards: 2, Transport: tr,
		Placement: func(role transput.Role, index int) netsim.NodeID {
			if role == transput.RoleFilter {
				return netsim.NodeID(index + 1)
			}
			return 0
		},
	})
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	if err := p.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.Destroy()
	k.Shutdown()
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, k.Metrics().SlabLeaked.Value()
}

// TestShardedPipelineSplicesViews: with items above the splice cutoff a
// sharded pipeline over real sockets delivers what the simulator
// delivers and returns every view it borrowed.
func TestShardedPipelineSplicesViews(t *testing.T) {
	for _, d := range []transput.Discipline{transput.ReadOnly, transput.WriteOnly} {
		for _, itemBytes := range []int{4 << 10, 16 << 10} {
			want, _ := runShardedDigest(t, transput.TransportNetsim, d, itemBytes, 200)
			for _, tr := range []transput.Transport{transput.TransportUnix, transput.TransportTCP} {
				got, leaked := runShardedDigest(t, tr, d, itemBytes, 200)
				if got != want {
					t.Errorf("%v %s %d B: digest differs from netsim", d, tr, itemBytes)
				}
				if leaked != 0 {
					t.Errorf("%v %s %d B: SlabLeaked = %d", d, tr, itemBytes, leaked)
				}
			}
		}
	}
}

var errTorn = errors.New("test: connection torn")

// tearingConn fails every Write after budget bytes, closing the
// connection halfway through the Write that crosses it.  It is not a
// net.buffersWriter, so a net.Buffers reaches it one segment per Write
// and the tear lands inside a vectored frame.
//
// It also shows the race detector what a socket hides from it.  The
// detector sees neither writev's reads nor the order a socket imposes
// (bytes a Read returned were written before), so a sender that
// reclaims its items on the read loop's word would go unchecked, or be
// reported against the very Write that sent them.  Write therefore
// reads its segment in instrumented code, first thing, and then
// publishes hb; hbReader acquires hb after each Read.  That edge is the
// socket's own and nothing more: an item reclaimed before its segment's
// Write began is still a reported race.
type tearingConn struct {
	net.Conn
	budget atomic.Int64
	hb     *atomic.Int64
	seg    []byte // one pass writes at a time
}

func (c *tearingConn) Write(p []byte) (int, error) {
	c.seg = append(c.seg[:0], p...)
	c.hb.Add(1)
	if left := c.budget.Add(-int64(len(p))); left < 0 {
		n, _ := c.Conn.Write(c.seg[:len(p)/2])
		c.Conn.Close()
		return n, errTorn
	}
	return c.Conn.Write(c.seg)
}

// hbReader is the read end of a tearingConn's socket.
type hbReader struct {
	net.Conn
	hb *atomic.Int64
}

func (c *hbReader) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.hb.Load()
	}
	return n, err
}

// reclaimReq is a DeliverRequest whose sender overwrites its items the
// moment the link hands them back, before releasing them: under -race,
// a link that hands them back while a write can still read them is a
// reported race.  The far side decodes a plain DeliverRequest.
type reclaimReq struct{ *transput.DeliverRequest }

func (r reclaimReq) ReleaseWirePayload() {
	for _, it := range r.Items {
		for j := range it {
			it[j] = 0xFF
		}
	}
	r.DeliverRequest.ReleaseWirePayload()
}

// TestTornConnectionReleasesBorrowedViews tears a direction while
// senders have vectored frames, whose items are slab views, queued and
// half written: once by failing the write end mid-frame, once by
// closing the read end under a writer (the read loop's fail racing a
// pass in WriteTo).  Every Transmit gets the link's error, every view
// is back in its slab when the last one returns, and no goroutine
// outlives Close.
func TestTornConnectionReleasesBorrowedViews(t *testing.T) {
	for _, kind := range kinds {
		for _, end := range []string{"write", "read"} {
			t.Run(kind+"/"+end, func(t *testing.T) {
				goroutines := quiesce.Baseline(t)
				met := &metrics.Set{}
				s, err := netsim.NewSocketNetwork(kind, 2)
				if err != nil {
					t.Fatalf("NewSocketNetwork: %v", err)
				}
				s.BindMetrics(met)
				wconn, rconn := s.TearDir(0, 1)
				var hb atomic.Int64
				tc := &tearingConn{Conn: *wconn, hb: &hb}
				tc.budget.Store(math.MaxInt64)
				if end == "write" {
					tc.budget.Store(3 << 20)
				}
				*wconn, *rconn = tc, &hbReader{Conn: *rconn, hb: &hb}
				slab := wire.NewSlab(met, 0)

				const senders = 8
				var sent atomic.Int64
				var wg sync.WaitGroup
				errs := make([]error, senders)
				for w := 0; w < senders; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for base := int64(0); ; base += 4 {
							items := make([][]byte, 4)
							for i := range items {
								items[i] = slab.Alloc(16 << 10)
								for j := range items[i] {
									items[i][j] = byte(w)
								}
							}
							// The receiving side's views are this test's to release.
							got, _, err := s.Transmit(0, 1, reclaimReq{&transput.DeliverRequest{Items: items, Base: base}})
							if err != nil {
								errs[w] = err
								return
							}
							got.(*transput.DeliverRequest).ReleaseWirePayload()
							sent.Add(1)
						}
					}(w)
				}
				if end == "read" {
					for sent.Load() < 64 {
						runtime.Gosched()
					}
					(*rconn).Close()
				}
				wg.Wait()

				for w, err := range errs {
					// Whichever killed the direction first: the read loop's
					// ErrLinkClosed (or its unexpected EOF inside a torn
					// frame), or the failed write's own error.
					var op *net.OpError
					if !errors.Is(err, netsim.ErrLinkClosed) && !errors.Is(err, io.ErrUnexpectedEOF) &&
						!errors.Is(err, errTorn) && !errors.As(err, &op) {
						t.Errorf("sender %d: error %v is neither the link's nor the write's", w, err)
					}
				}
				if n := slab.Close(); n != 0 {
					t.Errorf("%d sender-side views outstanding after the last Transmit returned", n)
				}
				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if n := met.SlabLeaked.Value(); n != 0 {
					t.Errorf("SlabLeaked = %d", n)
				}
				goroutines()
			})
		}
	}
}
