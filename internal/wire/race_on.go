//go:build race

package wire

import (
	"runtime"
	"sync"
	"unsafe"
)

// raceBuild is true in a race build: Pool.Put then resets a record on
// the pool's own goroutine.
const raceBuild = true

// aside is a pool's own goroutine, which recycles the records Put hands
// it, one at a time.
type aside struct {
	mu   sync.Mutex
	recs chan unsafe.Pointer
	done chan struct{}
}

// newAside starts the goroutine.  It runs as long as the program does,
// and recycle must not Put into the same pool.
func newAside(size uintptr, recycle func(unsafe.Pointer)) *aside {
	a := &aside{recs: make(chan unsafe.Pointer), done: make(chan struct{})}
	go func() {
		for r := range a.recs {
			runtime.RaceAcquire(r)
			runtime.RaceWriteRange(r, int(size))
			recycle(r)
			a.done <- struct{}{}
		}
	}()
	return a
}

// put has r recycled on the goroutine, as a write of the whole record,
// and waits for it.  The release on r orders the caller's uses of r
// before the reset; the hand-off itself is hidden from the detector, so
// nothing orders the caller's later uses after it.
func (a *aside) put(r unsafe.Pointer) {
	runtime.RaceRelease(r)
	runtime.RaceDisable()
	a.mu.Lock()
	a.recs <- r
	<-a.done
	a.mu.Unlock()
	runtime.RaceEnable()
}
