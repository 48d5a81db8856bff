package quiesce

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
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
// before the check passes it; one still parked at the check fails it
// once the check's bound (here 50 ms) is out, and the report carries
// the parked goroutine's stack.
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
		check := baseline(r, 50*time.Millisecond)
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

// TestDeadline: a test that ends within its deadline is left alone; one
// parked past it takes the process down, and the panic names the test
// and carries the parked goroutine's stack.  The parked test runs in a
// child process.
func TestDeadline(t *testing.T) {
	if os.Getenv("QUIESCE_DEADLINE_CHILD") != "" {
		Deadline(t, 50*time.Millisecond)
		release, done := make(chan struct{}), make(chan struct{})
		go parked(release, done)
		<-done
		return
	}
	t.Run("ended", func(t *testing.T) {
		Deadline(t, 20*time.Millisecond)
	})
	time.Sleep(50 * time.Millisecond) // the stopped watchdog would have fired by now

	cmd := exec.Command(os.Args[0], "-test.run=^TestDeadline$", "-test.timeout=20s")
	cmd.Env = append(os.Environ(), "QUIESCE_DEADLINE_CHILD=1")
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the parked child passed:\n%s", out)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("the parked child took %v to fail", took)
	}
	for _, want := range []string{"TestDeadline still running after 50ms", "quiesce.parked"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("the child's panic does not contain %q:\n%s", want, out)
		}
	}
}
