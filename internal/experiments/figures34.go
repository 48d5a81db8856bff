package experiments

import (
	"fmt"
	"io"
	"time"

	"asymstream/internal/device"
	"asymstream/internal/metrics"
	"asymstream/internal/transput"
)

// Figures 3 and 4 share one topology: a three-filter pipeline in which
// the source and the first filter also produce Report streams, both
// directed at a common Report Window.  The two experiments differ only
// in discipline:
//
//   - E6 / Figure 3 (write-only): reports are *pushed* — "the source,
//     F1 ... produce reports as well as normal output.  The reports
//     from source and F1 are directed to a common destination, perhaps
//     a window on a display."  The window cannot tell the two
//     reporters apart.
//
//   - E7 / Figure 4 (read-only with channel identifiers): each
//     reporter exposes a Report channel; the window is told both
//     (source UID, channel id) pairs and pulls them — "It is assumed
//     that the Report Window is designed to read from multiple
//     sources."  The streams stay distinguishable (the window labels
//     them).

// FigureResult is the measured outcome of one figure run.
type FigureResult struct {
	Items       int64
	ReportLines int
	Ejects      int64
	DataInv     int64
	TotalInv    int64
	Elapsed     time.Duration
}

// reportEvery controls report density in the figure workloads.
const reportEvery = 50

// dataAndReports writes `items` data lines to outs[0] and a report to
// outs[1] every reportEvery items plus a final summary.
func dataAndReports(name string, items int) transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		for i := 0; i < items; i++ {
			if err := outs[0].Put([]byte(fmt.Sprintf("%s data %d\n", name, i))); err != nil {
				return err
			}
			if (i+1)%reportEvery == 0 {
				if err := outs[1].Put([]byte(fmt.Sprintf("%s: %d items\n", name, i+1))); err != nil {
					return err
				}
			}
		}
		return outs[1].Put([]byte(fmt.Sprintf("%s: done\n", name)))
	}
}

// passWithReports forwards ins[0] to outs[0], reporting on outs[1].
func passWithReports(name string) transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		n := 0
		for {
			item, err := ins[0].Next()
			if err == io.EOF {
				return outs[1].Put([]byte(fmt.Sprintf("%s: done after %d\n", name, n)))
			}
			if err != nil {
				return err
			}
			if err := outs[0].Put(item); err != nil {
				return err
			}
			n++
			if n%reportEvery == 0 {
				if err := outs[1].Put([]byte(fmt.Sprintf("%s: %d items\n", name, n))); err != nil {
					return err
				}
			}
		}
	}
}

// passThrough forwards ins[0] to outs[0].
func passThrough() transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		for {
			item, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := outs[0].Put(item); err != nil {
				return err
			}
		}
	}
}

// RunFigure3 wires Figure 3: write-only discipline, reports pushed to
// the window.
func RunFigure3(items int) (FigureResult, error) {
	k := newKernel()
	defer k.Shutdown()
	before := k.Metrics().Snapshot()

	window, windowUID, err := device.NewReportWindow(k, 0, nil, device.ReportWindowConfig{Writers: 2})
	if err != nil {
		return FigureResult{}, err
	}

	// Sink (write-only): counts arriving data items.
	var count int64
	sinkStage := transput.NewWOStage(k, transput.WOStageConfig{Name: "sink"},
		func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
			for {
				_, err := ins[0].Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				count++
			}
		})
	sinkUID := k.NewUID()
	if err := k.CreateWithUID(sinkUID, sinkStage, 0); err != nil {
		return FigureResult{}, err
	}

	// F2: plain filter.
	f2UID := k.NewUID()
	f2 := transput.NewWOStage(k, transput.WOStageConfig{Name: "F2"}, passThrough(),
		transput.NewPusher(k, f2UID, sinkUID, sinkStage.Reader(0).ID(), transput.PusherConfig{}))
	if err := k.CreateWithUID(f2UID, f2, 0); err != nil {
		return FigureResult{}, err
	}

	// F1: reporting filter; outs[0] → F2, outs[1] → window.
	f1UID := k.NewUID()
	f1 := transput.NewWOStage(k, transput.WOStageConfig{Name: "F1"}, passWithReports("F1"),
		transput.NewPusher(k, f1UID, f2UID, f2.Reader(0).ID(), transput.PusherConfig{}),
		transput.NewPusher(k, f1UID, windowUID, window.PushChannel(), transput.PusherConfig{}))
	if err := k.CreateWithUID(f1UID, f1, 0); err != nil {
		return FigureResult{}, err
	}

	// Source: produces data and reports, both pushed.
	srcUID := k.NewUID()
	src := transput.NewConvStage("source", dataAndReports("source", items), nil,
		[]transput.ItemWriter{
			transput.NewPusher(k, srcUID, f1UID, f1.Reader(0).ID(), transput.PusherConfig{}),
			transput.NewPusher(k, srcUID, windowUID, window.PushChannel(), transput.PusherConfig{}),
		})
	if err := k.CreateWithUID(srcUID, src, 0); err != nil {
		return FigureResult{}, err
	}

	start := time.Now()
	sinkStage.Start()
	f2.Start()
	f1.Start()
	src.Start()
	<-sinkStage.Done()
	if err := sinkStage.Err(); err != nil {
		return FigureResult{}, err
	}
	window.WaitQuiescent()
	elapsed := time.Since(start)

	diff := metrics.Diff(before, k.Metrics().Snapshot())
	return FigureResult{
		Items:       count,
		ReportLines: len(window.Lines()),
		Ejects:      diff.Get("ejects_created"),
		DataInv:     diff.Get("transfer_invocations") + diff.Get("deliver_invocations"),
		TotalInv:    diff.Get("invocations"),
		Elapsed:     elapsed,
	}, nil
}

// RunFigure4 wires Figure 4: read-only discipline with channel
// identifiers; the window pulls both Report channels.
func RunFigure4(items int, capabilityMode bool) (FigureResult, error) {
	k := newKernel()
	defer k.Shutdown()
	before := k.Metrics().Snapshot()

	// Source: channels Output(0) and Report(1).
	src := transput.NewROStage(k, transput.ROStageConfig{
		Name:           "source",
		OutNames:       []string{"Output", "Report"},
		CapabilityMode: capabilityMode,
	}, dataAndReports("source", items))
	srcUID := k.NewUID()
	if err := k.CreateWithUID(srcUID, src, 0); err != nil {
		return FigureResult{}, err
	}
	src.Start()

	// F1: reporting filter with the same two channels.
	f1UID := k.NewUID()
	f1In := transput.NewInPort(k, f1UID, srcUID, src.Writer(0).ID(), transput.InPortConfig{})
	f1 := transput.NewROStage(k, transput.ROStageConfig{
		Name:           "F1",
		OutNames:       []string{"Output", "Report"},
		CapabilityMode: capabilityMode,
	}, passWithReports("F1"), f1In)
	if err := k.CreateWithUID(f1UID, f1, 0); err != nil {
		return FigureResult{}, err
	}
	f1.Start()

	// F2: plain filter.
	f2UID := k.NewUID()
	f2In := transput.NewInPort(k, f2UID, f1UID, f1.Writer(0).ID(), transput.InPortConfig{})
	f2 := transput.NewROStage(k, transput.ROStageConfig{
		Name:           "F2",
		CapabilityMode: capabilityMode,
	}, passThrough(), f2In)
	if err := k.CreateWithUID(f2UID, f2, 0); err != nil {
		return FigureResult{}, err
	}
	f2.Start()

	// Window: pulls both Report channels, labelled.
	window, windowUID, err := device.NewReportWindow(k, 0, nil, device.ReportWindowConfig{})
	if err != nil {
		return FigureResult{}, err
	}
	if err := device.Watch(k, windowUID, srcUID, src.Writer(1).ID(), "source"); err != nil {
		return FigureResult{}, err
	}
	if err := device.Watch(k, windowUID, f1UID, f1.Writer(1).ID(), "F1"); err != nil {
		return FigureResult{}, err
	}

	// Sink: pulls the primary stream.
	var count int64
	sinkUID := k.NewUID()
	sinkIn := transput.NewInPort(k, sinkUID, f2UID, f2.Writer(0).ID(), transput.InPortConfig{})
	sink := transput.NewConvStage("sink", func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
		for {
			_, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			count++
		}
	}, []transput.ItemReader{sinkIn}, nil)
	if err := k.CreateWithUID(sinkUID, sink, 0); err != nil {
		return FigureResult{}, err
	}

	start := time.Now()
	sink.Start()
	<-sink.Done()
	if err := sink.Err(); err != nil {
		return FigureResult{}, err
	}
	window.WaitQuiescent()
	elapsed := time.Since(start)

	diff := metrics.Diff(before, k.Metrics().Snapshot())
	return FigureResult{
		Items:       count,
		ReportLines: len(window.Lines()),
		Ejects:      diff.Get("ejects_created"),
		DataInv:     diff.Get("transfer_invocations") + diff.Get("deliver_invocations"),
		TotalInv:    diff.Get("invocations"),
		Elapsed:     elapsed,
	}, nil
}

// E6Figure3 tabulates the write-only report topology.
func E6Figure3(items int) (Table, error) {
	res, err := RunFigure3(items)
	if err != nil {
		return Table{}, err
	}
	return figureTable("E6",
		"Figure 3 — write-only pipeline with Report streams pushed to a shared window",
		res, items,
		"fan-out is free in write-only transput: source and F1 each hold two Pushers; the window cannot tell the reporters apart"), nil
}

// E7Figure4 tabulates the read-only + channel-identifier topology.
func E7Figure4(items int) (Table, error) {
	res, err := RunFigure4(items, false)
	if err != nil {
		return Table{}, err
	}
	return figureTable("E7",
		"Figure 4 — the same topology in the read-only discipline with channel identifiers",
		res, items,
		"fan-out restored by channels: Read(Output) vs Read(Report); the window pulls and labels each reporter"), nil
}

func figureTable(id, title string, res FigureResult, items int, note string) Table {
	expectReports := 2 * (items/reportEvery + 1)
	return Table{
		ID:      id,
		Title:   title,
		Columns: []string{"data items", "report lines", "expected reports", "ejects", "data inv", "total inv", "elapsed"},
		Rows: [][]string{{
			fmt.Sprintf("%d", res.Items),
			fmt.Sprintf("%d", res.ReportLines),
			fmt.Sprintf("%d", expectReports),
			fmt.Sprintf("%d", res.Ejects),
			fmt.Sprintf("%d", res.DataInv),
			fmt.Sprintf("%d", res.TotalInv),
			res.Elapsed.Round(time.Millisecond).String(),
		}},
		Notes: []string{note},
	}
}
