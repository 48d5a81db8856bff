package core_test

import (
	"testing"
	"time"

	"asymstream/internal/kernel"
)

// testKernel is a kernel the test shuts down when it ends.
func testKernel(t testing.TB) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{})
	t.Cleanup(k.Shutdown)
	return k
}

// eventually polls until cond holds, failing the test after five
// seconds: for state another goroutine reaches on its own schedule.
func eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}
