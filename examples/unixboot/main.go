// Unixboot: §7's bootstrap transput system, end to end.
//
// "NewStream takes as input a Unix path name, and returns as its
// result an Eden stream ... UseStream does the opposite; it takes as
// input a Unix path name and a Capability for a stream, and creates a
// UnixFile Eject which repeatedly invokes Transfer on the capability
// and records the data it receives."
//
// The example seeds a (simulated) Unix file, opens it as an Eden
// stream, pulls it through a comment-stripping filter Eject, and
// records the result back into the Unix file system — the exact round
// trip the 1983 prototype used to reach data that still lived in Unix.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"

	"asymstream"
	"asymstream/internal/fsys"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/unixfs"
)

func main() {
	sys := asymstream.NewSystem(asymstream.SystemConfig{})
	defer sys.Close()
	k := sys.Kernel()

	ufs, ufsUID, err := unixfs.New(k, 0, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Seed the host FS with a Fortran-flavoured file.
	must(ufs.Host().MkdirAll("/usr/src"))
	must(ufs.Host().WriteFile("/usr/src/prog.f",
		[]byte("C     MAIN PROGRAM\n      CALL WORK\nC     DONE\n      END\n")))

	// NewStream: wrap the Unix file in a transient UnixFile Eject.
	in, err := unixfs.NewStream(k, uid.Nil, ufsUID, "/usr/src/prog.f")
	must(err)
	fmt.Printf("NewStream(/usr/src/prog.f) -> capability %s %s\n", in.UID, in.Channel)

	// A filter Eject in the read-only discipline: it pulls from the
	// UnixFile (active input, on an InPort its body opens) and answers
	// Transfer invocations with the stripped stream (passive output, the
	// graph's outlet).  No Write exists anywhere.
	strip, err := transput.BuildGraph(k, transput.ReadOnly, transput.Graph{
		Nodes: []transput.Filter{{Name: "strip-comments", Body: func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
			src := transput.NewInPort(k, uid.Nil, in.UID, in.Channel, transput.InPortConfig{Batch: 4})
			defer src.Cancel("strip-comments done")
			for {
				item, err := src.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if bytes.HasPrefix(item, []byte("C")) {
					continue
				}
				if err := outs[0].Put(item); err != nil {
					return err
				}
			}
		}}},
		Edges: []transput.Edge{{From: 0, To: transput.Outlet}},
	}, transput.Options{})
	must(err)
	defer strip.Destroy()
	strip.Start()
	stripUID, stripChan := strip.Outlet(0)

	// UseStream: the write-side UnixFile pulls the filter's output to
	// completion and then writes the host file.
	rep, err := unixfs.UseStream(k, uid.Nil, ufsUID, "/usr/src/prog.stripped.f",
		fsys.StreamRef{UID: stripUID, Channel: stripChan})
	must(err)
	fmt.Printf("UseStream recorded %d items, %d bytes\n", rep.Items, rep.Bytes)

	out, err := ufs.Host().ReadFile("/usr/src/prog.stripped.f")
	must(err)
	fmt.Printf("resulting Unix file:\n%s", out)

	names, err := ufs.Host().ReadDir("/usr/src")
	must(err)
	fmt.Printf("/usr/src now holds: %v\n", names)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
