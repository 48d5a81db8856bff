package asymstream

// Benchmark harness: one benchmark per figure/claim of the paper's
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md).  Each benchmark
// runs a complete pipeline per iteration and reports, alongside
// ns/op, the reproduction's domain metrics:
//
//	inv/datum  — data-plane invocations per item (the paper's cost unit)
//	items/s    — end-to-end stream throughput
//
// The counting claims (n+1 vs 2n+2, n+2 vs 2n+3 Ejects) are asserted
// exactly in the test suite; the benchmarks show the same quantities
// under load.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"asymstream/internal/experiments"
	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// benchItems is the stream length per pipeline run inside benchmarks.
const benchItems = 512

// benchLinear runs one full pipeline per b.N iteration and reports
// domain metrics.
func benchLinear(b *testing.B, d Discipline, n int, opt Options) {
	b.Helper()
	var lastInvPerDatum float64
	var items int64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLinear(d, n, benchItems, opt)
		if err != nil {
			b.Fatal(err)
		}
		lastInvPerDatum = res.PerDatum()
		items += res.Items
	}
	elapsed := time.Since(start)
	b.ReportMetric(lastInvPerDatum, "inv/datum")
	b.ReportMetric(float64(items)/elapsed.Seconds(), "items/s")
}

// BenchmarkFig1UnixPipeline regenerates Figure 1 (E1): the
// conventional Unix pipeline, 2n+2 syscalls per datum.
func BenchmarkFig1UnixPipeline(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var items int64
			var lastSys float64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, _, _, err := experiments.RunUnix(n, benchItems, 64)
				if err != nil {
					b.Fatal(err)
				}
				lastSys = float64(res.DataInvocations-int64(2*(n+1))) / float64(res.Items)
				items += res.Items
			}
			b.ReportMetric(lastSys, "syscalls/datum")
			b.ReportMetric(float64(items)/time.Since(start).Seconds(), "items/s")
		})
	}
}

// BenchmarkFig2ReadOnlyPipeline regenerates Figure 2 (E2): the
// read-only discipline, n+1 invocations per datum, n+2 Ejects.
func BenchmarkFig2ReadOnlyPipeline(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchLinear(b, ReadOnly, n, Options{})
		})
	}
}

// BenchmarkBufferedEdenPipeline regenerates the §4 baseline (E3): the
// conventional discipline inside Eden, 2n+2 invocations per datum,
// 2n+3 Ejects.
func BenchmarkBufferedEdenPipeline(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchLinear(b, Buffered, n, Options{})
		})
	}
}

// BenchmarkWriteOnlyPipeline regenerates the §5 dual (E4).
func BenchmarkWriteOnlyPipeline(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchLinear(b, WriteOnly, n, Options{})
		})
	}
}

// BenchmarkBatchSize is ablation A1: Transfer's Max parameter.
func BenchmarkBatchSize(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchLinear(b, ReadOnly, 4, Options{Batch: batch})
		})
	}
}

// BenchmarkPrefetchDepth is ablation A2: the InPort's anticipatory
// read-ahead.
func BenchmarkPrefetchDepth(b *testing.B) {
	for _, pref := range []int{0, 4, 16} {
		b.Run(fmt.Sprintf("prefetch=%d", pref), func(b *testing.B) {
			benchLinear(b, ReadOnly, 4, Options{Batch: 8, Prefetch: pref})
		})
	}
}

// BenchmarkRecordStream is ablation A3: §6's typed record streams vs
// raw byte lines.
func BenchmarkRecordStream(b *testing.B) {
	type rec struct {
		Seq  int
		Name string
	}
	b.Run("bytes", func(b *testing.B) {
		benchLinear(b, ReadOnly, 1, Options{Batch: 8})
	})
	b.Run("gob-records", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := NewSystem(SystemConfig{})
			src := func(out ItemWriter) error {
				w := transput.NewRecordWriter[rec](out)
				for j := 0; j < benchItems; j++ {
					if err := w.Write(rec{Seq: j, Name: "r"}); err != nil {
						return err
					}
				}
				return nil
			}
			sink := func(in ItemReader) error {
				r := transput.NewRecordReader[rec](in)
				for {
					if _, err := r.Read(); err == io.EOF {
						return nil
					} else if err != nil {
						return err
					}
				}
			}
			p, err := sys.Pipeline(ReadOnly, src, nil, sink, Options{Batch: 8})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Run(); err != nil {
				b.Fatal(err)
			}
			sys.Close()
		}
	})
}

// BenchmarkCapabilityChannels is E8's cost row: capability vs integer
// channel addressing on the Transfer path.
func BenchmarkCapabilityChannels(b *testing.B) {
	for _, capMode := range []bool{false, true} {
		name := "integer"
		if capMode {
			name = "capability"
		}
		b.Run(name, func(b *testing.B) {
			benchLinear(b, ReadOnly, 1, Options{CapabilityMode: capMode})
		})
	}
}

// BenchmarkCostHierarchy is E9: the primitive cost ladder the paper's
// argument rests on.
func BenchmarkCostHierarchy(b *testing.B) {
	b.Run("intra-eject-chan-op", func(b *testing.B) {
		ch := make(chan []byte, 1)
		done := make(chan struct{})
		go func() {
			for range ch {
			}
			close(done)
		}()
		item := []byte("x")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch <- item
		}
		close(ch)
		<-done
	})
	b.Run("local-invocation", func(b *testing.B) {
		k := kernel.New(kernel.Config{})
		defer k.Shutdown()
		id, err := k.Create(echo{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Invoke(uid.Nil, id, transput.OpChannels, &transput.ChannelsRequest{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cross-node-invocation-gob", func(b *testing.B) {
		k := kernel.New(kernel.Config{Net: netsim.Config{Nodes: 2, EncodePayloads: true}})
		defer k.Shutdown()
		id, err := k.Create(echo{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Invoke(uid.Nil, id, transput.OpChannels, &transput.ChannelsRequest{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// echo is the cheapest invocation target.
type echo struct{}

func (echo) EdenType() string { return "bench.Echo" }
func (echo) Serve(inv *kernel.Invocation) {
	if inv.Op == transput.OpChannels {
		inv.Reply(&transput.ChannelsReply{})
		return
	}
	inv.Fail(kernel.ErrNoSuchOperation)
}

// BenchmarkFig3WriteOnlyReports regenerates Figure 3 (E6).
func BenchmarkFig3WriteOnlyReports(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure3(benchItems)
		if err != nil {
			b.Fatal(err)
		}
		if res.Items != benchItems {
			b.Fatalf("items = %d", res.Items)
		}
	}
}

// BenchmarkFig4ReadOnlyChannels regenerates Figure 4 (E7).
func BenchmarkFig4ReadOnlyChannels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure4(benchItems, false)
		if err != nil {
			b.Fatal(err)
		}
		if res.Items != benchItems {
			b.Fatalf("items = %d", res.Items)
		}
	}
}

// BenchmarkCrossNodePipeline is E9b's substrate: the same read-only
// pipeline with every stage on a different simulated node and payload
// serialisation on, vs the single-node layout.
func BenchmarkCrossNodePipeline(b *testing.B) {
	const n = 4
	b.Run("single-node", func(b *testing.B) {
		benchLinear(b, ReadOnly, n, Options{})
	})
	b.Run("node-per-stage-gob", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := kernel.New(kernel.Config{Net: netsim.Config{Nodes: n + 2, EncodePayloads: true}})
			var count int64
			src := func(out transput.ItemWriter) error {
				for j := 0; j < benchItems; j++ {
					if err := out.Put([]byte("payload line\n")); err != nil {
						return err
					}
				}
				return nil
			}
			sink := func(in transput.ItemReader) error {
				for {
					_, err := in.Next()
					if err == io.EOF {
						return nil
					}
					if err != nil {
						return err
					}
					count++
				}
			}
			var fs []transput.Filter
			for j := 0; j < n; j++ {
				fs = append(fs, transput.Filter{Name: "id", Body: func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
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
				}})
			}
			p, err := transput.BuildPipeline(k, transput.ReadOnly, src, fs, sink, transput.Options{
				Placement: func(role transput.Role, index int) netsim.NodeID {
					switch role {
					case transput.RoleSource:
						return 0
					case transput.RoleFilter:
						return netsim.NodeID(index + 1)
					default:
						return netsim.NodeID(n + 1)
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Run(); err != nil {
				b.Fatal(err)
			}
			k.Shutdown()
			if count != benchItems {
				b.Fatalf("count = %d", count)
			}
		}
	})
}

// BenchmarkLazinessStartup measures time-to-first-item for a lazy
// pipeline (nothing precomputed) vs an anticipatory one (buffers
// already full when the sink arrives) — E5's two poles.
func BenchmarkLazinessStartup(b *testing.B) {
	run := func(b *testing.B, lazy bool) {
		for i := 0; i < b.N; i++ {
			k := kernel.New(kernel.Config{})
			st := transput.NewROStage(k, transput.ROStageConfig{
				Name:      "src",
				LazyStart: lazy,
			}, func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
				for j := 0; j < 64; j++ {
					if err := outs[0].Put([]byte("x")); err != nil {
						return err
					}
				}
				return nil
			})
			id := k.NewUID()
			if err := k.CreateWithUID(id, st, 0); err != nil {
				b.Fatal(err)
			}
			if !lazy {
				st.Start()
			}
			in := transput.NewInPort(k, uid.Nil, id, transput.Chan(0), transput.InPortConfig{})
			if _, err := in.Next(); err != nil {
				b.Fatal(err)
			}
			k.Shutdown()
		}
	}
	b.Run("lazy", func(b *testing.B) { run(b, true) })
	b.Run("anticipatory", func(b *testing.B) { run(b, false) })
}

// BenchmarkFanTopologies is E10 under testing.B: the four fan
// directions of §5 at degree 4.
func BenchmarkFanTopologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.E10Fan([]int{4}, 64)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) != 4 {
			b.Fatalf("rows = %d", len(tb.Rows))
		}
	}
}
