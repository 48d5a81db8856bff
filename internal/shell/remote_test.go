package shell

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"asymstream/internal/quiesce"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
)

// TestShellRemote runs the `remote ADDR spec` stage against a second
// session that serves its Opener on a unix socket: whole streams (with
// words the spec must quote, a host file and a clock among them), an
// unknown spec that fails rather than hangs, and a `head` that leaves
// early.  After each line the serving kernel holds no source stage, and
// once both sessions close, goroutines and fds are back at baseline.
func TestShellRemote(t *testing.T) {
	goroutines := quiesce.Baseline(t)
	fds := quiesce.FDs(t)

	srv, err := NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Execute(`put /f "x\ny\n"`); err != nil {
		t.Fatal(err)
	}
	addr, stop := serve(t, srv)
	ejects := srv.K.ActiveCount()

	var out bytes.Buffer
	cli, err := NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		line, want string // want "" means the line must fail
	}{
		{`remote ADDR count 100 | grep "7$" | print`, "7\n17\n27\n37\n47\n57\n67\n77\n87\n97\n"},
		{`remote ADDR text a b | upcase | print`, "A B"},
		{`remote ADDR bogus 1 | print`, ""},
		{`remote ADDR count 100000 | head 3 | print`, "0\n1\n2\n"},
		{`remote ADDR text "a|b \"c\"" | print`, `a|b "c"`},
		{`remote ADDR file /f | print`, "x\ny\n"},
		{`remote ADDR clock 2 | print`, "2"},
	} {
		out.Reset()
		line := strings.Replace(row.line, "ADDR", addr, 1)
		done := make(chan error, 1)
		go func() { done <- cli.Execute(line) }()
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no answer in 10 s", row.line)
		}
		switch {
		case row.want == "" && err == nil:
			t.Errorf("%s: succeeded, want an error", row.line)
		case row.want != "" && err != nil:
			t.Errorf("%s: %v", row.line, err)
		case !strings.HasPrefix(out.String(), row.want):
			t.Errorf("%s: output %q, want it to start %q", row.line, out.String(), row.want)
		}
		for deadline := time.Now().Add(5 * time.Second); srv.K.ActiveCount() > ejects; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d Ejects on the server, %d before it", row.line, srv.K.ActiveCount(), ejects)
			}
		}
	}

	cli.Close()
	stop()
	srv.Close()
	goroutines()
	fds()
}

// TestOpenerConcurrent opens stats and trace streams on one served
// session from several goroutines at once, as a server's bridge workers
// do; run it under -race.
func TestOpenerConcurrent(t *testing.T) {
	srv, err := NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	open := srv.Opener()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				spec := []string{"stats", "trace 5", "count 3"}[g%3]
				src, err := open(spec)
				if err != nil {
					t.Errorf("%s: %v", spec, err)
					return
				}
				if _, err := transput.Drain(src); err != nil {
					t.Errorf("%s: %v", spec, err)
				}
				src.Close()
			}
		}()
	}
	if err := srv.Execute(`stats | discard`); err != nil {
		t.Error(err)
	}
	wg.Wait()
}

// serve serves srv's Opener on a unix socket, as edensh -serve does,
// until stop.
func serve(t *testing.T, srv *Session) (addr string, stop func()) {
	t.Helper()
	if err := transport.RegisterControl(srv.K, srv.Opener()); err != nil {
		t.Fatal(err)
	}
	addr = "unix:" + filepath.Join(t.TempDir(), "eden.sock")
	ln, err := transport.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- transport.Serve(ln, srv.K) }()
	return addr, func() {
		ln.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// TestServedProcess re-executes the test binary as a serving process
// that runs what `edensh -serve` runs, and reads that process's meters
// and invocation trace through ordinary filters: `stats` and `trace N`
// are source words like any other.  The child also answers each line
// on its stdin with its kernel's active Eject count, so the test sees
// that a stream left early holds no source stage there.
func TestServedProcess(t *testing.T) {
	if addr := os.Getenv("SHELL_SERVE_CHILD"); addr != "" {
		serveProcess(t, addr)
		return
	}
	quiesce.Deadline(t, time.Minute)
	goroutines := quiesce.Baseline(t)
	fds := quiesce.FDs(t)

	addr := "unix:" + filepath.Join(t.TempDir(), "eden.sock")
	cmd := exec.Command(os.Args[0], "-test.run=^TestServedProcess$")
	cmd.Env = append(os.Environ(), "SHELL_SERVE_CHILD="+addr)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	replies := bufio.NewScanner(stdout)
	ejects := func() string {
		fmt.Fprintln(stdin, "ejects")
		if !replies.Scan() {
			t.Fatalf("the serving process stopped: %v", replies.Err())
		}
		return replies.Text()
	}
	base := ejects() // the first answer also says the child is listening

	var out bytes.Buffer
	cli, err := NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct{ line, want string }{
		{`remote ADDR count 3 | print`, "0\n1\n2\n"},
		{`remote ADDR stats | grep transfer_invocations | print`, "transfer_invocations="},
		// A trace holds what had finished when it opened: the previous
		// line's Remote.Close is its last event, however many Transfers
		// that line made.
		{`remote ADDR trace 10 | grep Remote.Close | print`, "Remote.Close "},
		{`remote ADDR trace 100000 | head 2 | print`, " invocations total; last "},
	} {
		out.Reset()
		if err := cli.Execute(strings.Replace(row.line, "ADDR", addr, 1)); err != nil {
			t.Fatalf("%s: %v", row.line, err)
		}
		if !strings.Contains(out.String(), row.want) {
			t.Errorf("%s: output %q, want it to contain %q", row.line, out.String(), row.want)
		}
		for deadline := time.Now().Add(5 * time.Second); ejects() != base; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %s Ejects on the server, %s before it", row.line, ejects(), base)
			}
		}
	}
	if lines := strings.Count(out.String(), "\n"); lines != 3 {
		t.Errorf("head 2 printed %d lines with its footer, want 3:\n%s", lines, out.String())
	}

	cli.Close()
	stdin.Close()
	rest, _ := io.ReadAll(stdout)
	if err := cmd.Wait(); err != nil {
		t.Errorf("the serving process: %v\n%s", err, rest)
	}
	goroutines()
	fds()
}

// serveProcess is TestServedProcess's child: edensh -serve's sequence,
// with a reader that answers every stdin line with the active Eject
// count and stops serving at end of input.
func serveProcess(t *testing.T, addr string) {
	sess, err := NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := transport.RegisterControl(sess.K, sess.Opener()); err != nil {
		t.Fatal(err)
	}
	ln, err := transport.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for in := bufio.NewScanner(os.Stdin); in.Scan(); {
			fmt.Println(sess.K.ActiveCount())
		}
		ln.Close()
	}()
	if err := transport.Serve(ln, sess.K); err != nil {
		t.Error(err)
	}
}
