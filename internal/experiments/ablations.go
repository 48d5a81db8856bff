package experiments

import (
	"fmt"
	"io"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// A1BatchSweep ablates the Max parameter of Transfer (items per
// invocation).  The 1983 protocol moved one datum per invocation —
// batch 1 reproduces the paper's counting — and the sweep shows how
// batching amortises the per-invocation cost the paper is trying to
// halve by other means.
func A1BatchSweep(n, items int) (Table, error) {
	t := Table{
		ID:      "A1",
		Title:   fmt.Sprintf("ablation — Transfer batch size (read-only, n=%d filters)", n),
		Columns: []string{"batch", "inv/datum", "items/s"},
		Notes: []string{
			"batch 1 is the paper-faithful one-datum-per-invocation regime; batching is the orthogonal optimisation",
		},
	}
	for _, batch := range []int{1, 2, 8, 32, 128} {
		res, err := RunLinear(transput.ReadOnly, n, items, transput.Options{Batch: batch})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", batch),
			fmt.Sprintf("%.3f", res.PerDatum()),
			fmt.Sprintf("%.0f", res.Throughput()),
		})
	}
	return t, nil
}

// A2PrefetchSweep ablates the InPort's anticipatory read-ahead: 0 is
// the demand-driven (lazy) limit, larger values overlap consumer and
// producer — §4's laziness/parallelism dial seen from the active
// side.
func A2PrefetchSweep(n, items int) (Table, error) {
	t := Table{
		ID:      "A2",
		Title:   fmt.Sprintf("ablation — InPort prefetch depth (read-only, n=%d filters, batch 8)", n),
		Columns: []string{"prefetch", "inv/datum", "items/s"},
	}
	for _, pref := range []int{0, 1, 4, 16} {
		res, err := RunLinear(transput.ReadOnly, n, items, transput.Options{Batch: 8, Prefetch: pref})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pref),
			fmt.Sprintf("%.3f", res.PerDatum()),
			fmt.Sprintf("%.0f", res.Throughput()),
		})
	}
	return t, nil
}

// weather is the record type of the A3 typed-stream workload.
type weather struct {
	Seq     int
	Station string
	TempC   float64
}

// A3RecordStream ablates §6's record streams: the same pipeline moves
// raw byte lines vs gob-framed typed records, quantifying the framing
// cost of "streams of arbitrary records".
func A3RecordStream(items int) (Table, error) {
	t := Table{
		ID:      "A3",
		Title:   "ablation — byte lines vs typed (gob) record streams (§6)",
		Columns: []string{"framing", "items", "items/s", "bytes moved"},
	}

	// Raw byte lines.
	res, err := RunLinear(transput.ReadOnly, 1, items, transput.Options{Batch: 8})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"byte lines",
		fmt.Sprintf("%d", res.Items),
		fmt.Sprintf("%.0f", res.Throughput()),
		fmt.Sprintf("%d", res.BytesMoved),
	})

	// Typed records through the same topology.
	k := newKernel()
	defer k.Shutdown()
	src := func(out transput.ItemWriter) error {
		w := transput.NewRecordWriter[weather](out)
		for i := 0; i < items; i++ {
			if err := w.Write(weather{Seq: i, Station: "KSEA", TempC: 11.5 + float64(i%10)}); err != nil {
				return err
			}
		}
		return nil
	}
	// A typed filter: decode, transform, re-encode.
	toF := transput.Filter{Name: "toFahrenheit", Body: func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		r := transput.NewRecordReader[weather](ins[0])
		w := transput.NewRecordWriter[weather](outs[0])
		for {
			rec, err := r.Read()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			rec.TempC = rec.TempC*9/5 + 32
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}}
	var got int64
	before := k.Metrics().Snapshot()
	p, err := transput.BuildPipeline(k, transput.ReadOnly, src, []transput.Filter{toF},
		func(in transput.ItemReader) error {
			r := transput.NewRecordReader[weather](in)
			for {
				_, err := r.Read()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				got++
			}
		}, transput.Options{Batch: 8})
	if err != nil {
		return t, err
	}
	start := time.Now()
	if err := p.Run(); err != nil {
		return t, err
	}
	elapsed := time.Since(start)
	after := k.Metrics().Snapshot()
	t.Rows = append(t.Rows, []string{
		"gob records",
		fmt.Sprintf("%d", got),
		fmt.Sprintf("%.0f", float64(got)/elapsed.Seconds()),
		fmt.Sprintf("%d", after.Get("bytes_moved")-before.Get("bytes_moved")),
	})
	return t, nil
}

// A4DispatchPaths asks what the coordinator + worker structure costs.
// The kernel has two ways to get an invocation served, and picks
// between them from the call alone: a synchronous same-node Invoke
// takes one of the target's worker slots and runs Serve on the
// invoker's goroutine; AsyncInvoke goes through the mailbox to a pool
// worker, and its Wait is woken by that worker.  Both are driven here
// against one Eject on one kernel: invocation and switch counts are
// identical — the paper's accounting does not see the difference — and
// the gap in calls/s is the two goroutine hand-offs.
func A4DispatchPaths(calls int) (Table, error) {
	t := Table{
		ID:      "A4",
		Title:   "ablation — dispatch paths: caller-runs Invoke vs mailbox AsyncInvoke+Wait (one Eject, one kernel)",
		Columns: []string{"dispatch", "calls/s", "inv/call", "switches/call"},
		Notes: []string{
			"both paths hold one of the Eject's worker slots while Serve runs; only the goroutine differs",
		},
	}
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	id, err := k.Create(echoEject{}, 0)
	if err != nil {
		return t, err
	}
	caller := k.Caller(uid.Nil)
	req := &transput.ChannelsRequest{}
	paths := []struct {
		name   string
		invoke func() error
	}{
		{"Invoke (serves on the invoker's goroutine)", func() error {
			_, err := caller.Invoke(id, transput.OpChannels, req)
			return err
		}},
		{"AsyncInvoke+Wait (mailbox + pool worker)", func() error {
			_, err := caller.AsyncInvoke(id, transput.OpChannels, req).Wait()
			return err
		}},
	}
	for _, path := range paths {
		if err := path.invoke(); err != nil { // warm the pools and the worker
			return t, err
		}
		before := k.Metrics().Snapshot()
		start := time.Now()
		for i := 0; i < calls; i++ {
			if err := path.invoke(); err != nil {
				return t, err
			}
		}
		elapsed := time.Since(start)
		after := k.Metrics().Snapshot()
		per := func(name string) string {
			return fmt.Sprintf("%.3f", float64(after.Get(name)-before.Get(name))/float64(calls))
		}
		t.Rows = append(t.Rows, []string{
			path.name,
			fmt.Sprintf("%.0f", float64(calls)/elapsed.Seconds()),
			per("invocations"),
			per("process_switches"),
		})
	}
	return t, nil
}

// A5PayloadSweep ablates item size: the protocol's per-invocation
// costs amortise over larger records, and cross-node wire bytes grow
// with payload — the tradeoff behind §6's framing freedom (the stream
// carries any homogeneous record; the *size* of the record is the
// tuning knob).
func A5PayloadSweep(n int) (Table, error) {
	t := Table{
		ID:      "A5",
		Title:   fmt.Sprintf("ablation — item size (read-only, n=%d filters, batch 1)", n),
		Columns: []string{"item bytes", "items", "items/s", "MB/s", "bytes moved"},
	}
	for _, size := range []int{16, 256, 4096} {
		items := 20000 / (size/16 + 1)
		if items < 100 {
			items = 100
		}
		k := kernel.New(kernel.Config{})
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte('a' + i%26)
		}
		src := func(out transput.ItemWriter) error {
			for i := 0; i < items; i++ {
				if err := out.Put(payload); err != nil {
					return err
				}
			}
			return nil
		}
		var count int64
		before := k.Metrics().Snapshot()
		p, err := transput.BuildPipeline(k, transput.ReadOnly, src, identityFilters(n), discardSink(&count), transput.Options{})
		if err != nil {
			k.Shutdown()
			return t, err
		}
		start := time.Now()
		if err := p.Run(); err != nil {
			k.Shutdown()
			return t, err
		}
		elapsed := time.Since(start)
		after := k.Metrics().Snapshot()
		bytesMoved := after.Get("bytes_moved") - before.Get("bytes_moved")
		k.Shutdown()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%d", count),
			fmt.Sprintf("%.0f", float64(count)/elapsed.Seconds()),
			fmt.Sprintf("%.1f", float64(count)*float64(size)/elapsed.Seconds()/1e6),
			fmt.Sprintf("%d", bytesMoved),
		})
	}
	return t, nil
}
