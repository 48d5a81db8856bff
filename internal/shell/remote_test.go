package shell

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asymstream/internal/quiesce"
	"asymstream/internal/transport"
)

// TestShellRemote runs the `remote ADDR spec` stage against a second
// session that serves its Opener on a unix socket: whole streams, an
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
	if err := transport.RegisterControl(srv.K, srv.Opener()); err != nil {
		t.Fatal(err)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "eden.sock")
	ln, err := transport.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- transport.Serve(ln, srv.K) }()
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
	ln.Close()
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
	srv.Close()
	goroutines()
	fds()
}
