package spec

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"asymstream/internal/device"
	"asymstream/internal/fsys"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// verdict is what a conformance run observed: nil for an Eject that
// conforms, else the probes it failed, in order.
func verdict(t *testing.T, err error) []string {
	t.Helper()
	if err == nil {
		return nil
	}
	var ce *ConformanceError
	if !errors.As(err, &ce) {
		t.Fatalf("conformance run: %v", err)
	}
	probes := make([]string, len(ce.Violations))
	for i, v := range ce.Violations {
		probes[i] = v.Probe
	}
	return probes
}

// TestConformanceAcrossTheBridge is §2's observational compatibility
// across a process boundary: an Eject and its AttachProxy proxy in a
// second kernel answer every probe set alike, over a Unix socket and
// over TCP.  Where the Eject conforms, so does the proxy; where it
// does not (a concatenator refuses the mutating directory ops), the
// proxy fails the same probes.
func TestConformanceAcrossTheBridge(t *testing.T) {
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			far := specKernel(t)
			_, dir, err := fsys.NewDirectory(far, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, cat, err := fsys.NewDirectoryConcatenator(far, 0, []uid.UID{dir})
			if err != nil {
				t.Fatal(err)
			}
			_, store, err := fsys.NewMapStore(far, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, file, err := fsys.NewFileWithContent(far, 0, []byte("content\n"))
			if err != nil {
				t.Fatal(err)
			}
			static, staticChan, err := device.StaticSource(far, 0,
				transput.SplitLines([]byte("x\n")), transput.ROStageConfig{})
			if err != nil {
				t.Fatal(err)
			}
			cases := []struct {
				name     string
				target   uid.UID
				spec     Spec
				conforms bool
			}{
				{"directory", dir, DirectorySpec(), true},
				{"directory", dir, DirectoryMutableSpec(), true},
				{"concatenator", cat, DirectorySpec(), true},
				{"concatenator", cat, DirectoryMutableSpec(), false},
				{"map store", store, MapSpec(), true},
				{"map store", store, NotAStreamSpec(), true},
				{"file", file, MapSpec(), true},
				{"static source", static, SourceSpec(staticChan), true},
			}

			addr := "tcp:127.0.0.1:0"
			if network == "unix" {
				addr = "unix:" + filepath.Join(t.TempDir(), "spec.sock")
			}
			ln, err := transport.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			go func() { _ = transport.Serve(ln, far) }()
			peer, err := transport.Dial(network + ":" + ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { peer.Close() })
			near := specKernel(t)
			for _, id := range []uid.UID{dir, cat, store, file, static} {
				if err := transport.AttachProxy(near, peer, id, 0); err != nil {
					t.Fatal(err)
				}
			}

			for _, c := range cases {
				local := verdict(t, Conforms(far, uid.Nil, c.target, c.spec))
				proxied := verdict(t, Conforms(near, uid.Nil, c.target, c.spec))
				if (local == nil) != c.conforms {
					t.Errorf("%s, %q: violations %v, want conforms = %v", c.name, c.spec.Name, local, c.conforms)
				}
				if !slices.Equal(local, proxied) {
					t.Errorf("%s, %q: the Eject fails [%s], its proxy [%s]", c.name, c.spec.Name,
						strings.Join(local, "; "), strings.Join(proxied, "; "))
				}
			}
		})
	}
}
