package pull_test

import (
	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/wire"
	"io"
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

// drainReleasing reads r to its end, releasing each item once copied.
func drainReleasing(r itemio.ItemReader) ([]string, error) {
	var got []string
	for {
		item, err := r.Next()
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return got, err
		}
		got = append(got, string(item))
		wire.Release(item)
	}
}
