// Package quiesce holds the teardown post-conditions that the tests of
// several packages share: once a test has torn down what it started,
// the process is back to the goroutines and the open file descriptors
// it had before; and a test that parks forever fails within its own
// deadline.  Only tests import it.
package quiesce

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// Goroutines polls until the goroutine count is at most limit, for up
// to 5 s, and returns the count it last saw.
func Goroutines(limit int) int { return goroutines(limit, 5*time.Second) }

// goroutines is Goroutines polling for up to bound.
func goroutines(limit int, bound time.Duration) int {
	deadline := time.Now().Add(bound)
	for {
		n := runtime.NumGoroutine()
		if n <= limit || time.Now().After(deadline) {
			return n
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Settled returns the goroutine count once it has held still for 10 ms
// (within 2 s), so that stragglers of an earlier test — a kernel
// shutting down — are not mistaken for this one's.
func Settled() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// Baseline takes the settled goroutine count and returns the check for
// the end of the test's teardown: it fails t, with every goroutine's
// stack, unless the count is back at the baseline within 5 s.
func Baseline(t testing.TB) (check func()) { return baseline(t, 5*time.Second) }

// baseline is Baseline whose check waits for up to bound.
func baseline(t testing.TB, bound time.Duration) (check func()) {
	t.Helper()
	base := Settled()
	return func() {
		t.Helper()
		if n := goroutines(base, bound); n > base {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines running, %d at the baseline:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// Deadline arms a watchdog for the rest of t, its subtests and
// cleanups included: unless t has ended within d, the process panics
// with every goroutine's stack.  A lost wakeup then fails the test at
// once, naming where each goroutine is parked, instead of holding the
// test binary until its -timeout.
func Deadline(t testing.TB, d time.Duration) {
	name := t.Name()
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s still running after %v; every goroutine:\n%s", name, d, buf[:runtime.Stack(buf, true)]))
	})
	t.Cleanup(func() { timer.Stop() })
}

// FDs counts the file descriptors the process has open and returns the
// check for the end of the test's teardown: it fails t unless the count
// is back at the baseline within 5 s.  The GC is off from here to the
// check, because a socket's finalizer closes it and would hide a leaked
// connection until the next collection.  Where /proc/self/fd does not
// exist the check is skipped.
func FDs(t testing.TB) (check func()) {
	t.Helper()
	// Start the runtime's poller first: the fds it keeps for the life of
	// the process belong in the baseline.
	if r, w, err := os.Pipe(); err == nil {
		r.Close()
		w.Close()
	}
	base, ok := openFDs()
	if !ok {
		return func() { t.Log("no /proc/self/fd: open fds not checked") }
	}
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		n, _ := openFDs()
		for n > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			n, _ = openFDs()
		}
		if n > base {
			t.Errorf("%d file descriptors open after teardown, %d before the test", n, base)
		}
	}
}

// openFDs counts the process's open file descriptors; ok is false where
// /proc/self/fd does not exist.
func openFDs() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err == nil
}
