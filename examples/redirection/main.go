// Redirection: §8's headline — "Redirection of input and output can be
// provided very naturally in a system where each entity is referred to
// by means of a unique identifier.  Special file or stream descriptors
// are not needed."
//
// A live consumer is switched between three sources mid-stream: a
// file's read stream, a running filter pipeline, and the date/time
// source — demonstrating that "there is no distinction between input
// redirection from a file and from a program" (§4): every case is the
// same (UID, channel) pair.
package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"asymstream"
	"asymstream/internal/device"
	"asymstream/internal/fsys"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

func main() {
	sys := asymstream.NewSystem(asymstream.SystemConfig{})
	defer sys.Close()
	k := sys.Kernel()
	fsys.RegisterTypes(k)

	// Source 1: a file Eject.
	_, fileUID, err := fsys.NewFileWithContent(k, 0,
		[]byte("from the file: line 1\nfrom the file: line 2\n"))
	must(err)
	fileRef, err := fsys.Open(k, uid.Nil, fileUID, nil)
	must(err)

	// Source 2: a running pipeline, its one stage's output left open.
	gen, err := transput.BuildGraph(k, transput.ReadOnly, transput.Graph{
		Nodes: []transput.Filter{{Name: "generator", Body: func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
			for i := 1; i <= 2; i++ {
				if err := outs[0].Put([]byte(fmt.Sprintf("FROM THE PIPELINE: LINE %d\n", i))); err != nil {
					return err
				}
			}
			return nil
		}}},
		Edges: []transput.Edge{{From: 0, To: transput.Outlet}},
	}, transput.Options{})
	must(err)
	defer gen.Destroy()
	gen.Start()
	stageUID, stageChan := gen.Outlet(0)

	// Source 3: the clock device — an endless source we abandon.
	fixed := time.Date(1983, 10, 10, 9, 30, 0, 0, time.UTC)
	_, clockUID, err := device.NewClockSource(k, 0, func() time.Time { return fixed }, time.Kitchen)
	must(err)

	// One consumer, redirected twice while running.
	in := transput.NewInPort(k, uid.Nil, fileRef.UID, fileRef.Channel, transput.InPortConfig{})
	drainUntilEOF(in)

	fmt.Println("-- redirect to the pipeline (same two words as redirecting to a file) --")
	must(in.Redirect(stageUID, stageChan, ""))
	drainUntilEOF(in)

	fmt.Println("-- redirect to the clock (an endless device source) --")
	must(in.Redirect(clockUID, transput.Chan(0), ""))
	for i := 0; i < 2; i++ {
		item, err := in.Next()
		must(err)
		fmt.Printf("from the clock: %s", item)
	}
	in.Cancel("done")
}

func drainUntilEOF(in *transput.InPort) {
	for {
		item, err := in.Next()
		if err == io.EOF {
			return
		}
		must(err)
		fmt.Print(string(item))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
