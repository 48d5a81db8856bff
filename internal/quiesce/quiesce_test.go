package quiesce

import (
	"fmt"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps what Errorf reports instead of
// failing the test that holds it.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// parked is the leaked goroutine's body, named so that its stack can be
// found in the report.
func parked(release <-chan struct{}, done chan<- struct{}) {
	<-release
	close(done)
}

// TestBaseline: a goroutine started after the baseline and joined
// before the check passes it; one still parked at the check fails it,
// and the report carries the parked goroutine's stack.
func TestBaseline(t *testing.T) {
	t.Run("joined", func(t *testing.T) {
		r := &recorder{TB: t}
		check := Baseline(r)
		release, done := make(chan struct{}), make(chan struct{})
		go parked(release, done)
		close(release)
		<-done
		check()
		if len(r.errs) != 0 {
			t.Fatalf("check failed a joined goroutine: %s", r.errs[0])
		}
	})
	t.Run("leaked", func(t *testing.T) {
		r := &recorder{TB: t}
		check := Baseline(r)
		release, done := make(chan struct{}), make(chan struct{})
		go parked(release, done)
		check()
		close(release)
		<-done
		if len(r.errs) != 1 {
			t.Fatalf("check reported %d failures for one parked goroutine, want 1", len(r.errs))
		}
		if !strings.Contains(r.errs[0], "quiesce.parked") {
			t.Fatalf("report does not name the parked goroutine:\n%s", r.errs[0])
		}
	})
}
