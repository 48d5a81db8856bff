package transport_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"asymstream/internal/kernel"
)

// BenchmarkBridgeInvoke is one bridge round trip to an echo Eject over a
// Unix socket, both ends in this process, on one P (a lone caller's
// ping-pong has nothing to run in parallel; benchmark/echo.go).  The
// callers-8 row is eight callers sharing the Peer: both coalescers
// batch, so a round trip costs well under a lone caller's.  The gob row
// is the traffic the read loop's decode could cost — values of the gob
// fallback, dear to decode, from eight callers, decoded one at a time a
// connection — so it alone runs on two Ps.
func BenchmarkBridgeInvoke(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	echo, err := k.Create(echoEject{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := serveAndDial(b, k)
	defer p.Close()

	// invoke boxes its payload on every call, as a caller would.
	run := func(name string, size, callers int, invoke func() (any, error)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			var wg sync.WaitGroup
			var left atomic.Int64
			left.Store(int64(b.N))
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for left.Add(-1) >= 0 {
						if _, err := invoke(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
	small, large := make([]byte, 64), make([]byte, 16<<10)
	words := []string{"open", "/usr/lib/eden/some/file", "rw", "0644", "a", "b", "c", "d"}
	run("64B", len(small), 1, func() (any, error) { return p.Invoke(echo, "Echo", small) })
	run("16KiB", len(large), 1, func() (any, error) { return p.Invoke(echo, "Echo", large) })
	run("64B/callers-8", len(small), 8, func() (any, error) { return p.Invoke(echo, "Echo", small) })
	runtime.GOMAXPROCS(2)
	run("gob/callers-8/P2", 0, 8, func() (any, error) { return p.Invoke(echo, "Echo", words) })
}

var raceEnabled bool // set by race_test.go
