// Package asymstream is a Go reproduction of Andrew P. Black's "An
// Asymmetric Stream Communication System" (SOSP 1983) — the Eden
// transput paper — together with the substrate it needs: a simulated
// Eden kernel (Ejects, UIDs, invocation, checkpoint/activation), a
// multi-node network model, an Eden file system, the §7 Unix
// bootstrap, a filter library, and a simulated Unix-pipe baseline.
//
// The package is a thin facade: it re-exports the protocol types and
// wires the substrates together behind System.  The heavy lifting
// lives in the internal packages:
//
//	internal/kernel   — the Eden kernel simulator
//	internal/transput — the asymmetric stream protocol (the paper's contribution)
//	internal/filters  — pure and impure stream filters
//	internal/fsys     — file and directory Ejects
//	internal/unixfs   — §7 bootstrap over a simulated host FS
//	internal/device   — terminals, printers, report windows, sources
//	internal/unixpipe — the Figure 1 Unix baseline
//
// Quick start:
//
//	sys := asymstream.NewSystem(asymstream.SystemConfig{})
//	defer sys.Close()
//	p, _ := sys.Pipeline(asymstream.ReadOnly,
//		asymstream.LinesSource("a\nb\nc\n"),
//		[]asymstream.Filter{{Name: "upcase", Body: filters.UpperCase()}},
//		sink, asymstream.Options{})
//	err := p.Run()
package asymstream

import (
	"errors"
	"io"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/unixpipe"
)

// Re-exported core types, so typical users import only this package
// plus internal/filters.
type (
	// UID names an Eject.
	UID = uid.UID
	// ChannelID qualifies a Transfer/Deliver (§5).
	ChannelID = transput.ChannelID
	// Discipline selects read-only / write-only / buffered wiring.
	Discipline = transput.Discipline
	// Options tunes a pipeline build.
	Options = transput.Options
	// Filter is a named single-stream stage.
	Filter = transput.Filter
	// Body is the discipline-neutral stage function.
	Body = transput.Body
	// ItemReader / ItemWriter are the stream endpoints stage bodies
	// see.
	ItemReader = transput.ItemReader
	ItemWriter = transput.ItemWriter
	// Pipeline is a built pipeline.
	Pipeline = transput.Pipeline
	// SourceFunc / SinkFunc are the pipeline's two pumps.
	SourceFunc = transput.SourceFunc
	SinkFunc   = transput.SinkFunc
	// Snapshot is a point-in-time copy of the system's meters.
	Snapshot = metrics.Snapshot
	// NodeID names a simulated machine.
	NodeID = netsim.NodeID
	// Role identifies a pipeline element for placement.
	Role = transput.Role
	// FusionMode selects whether BuildPipeline compiles adjacent
	// co-located stages into single Ejects (Options.Fusion).
	FusionMode = transput.FusionMode
)

// Re-exported constants.
const (
	ReadOnly  = transput.ReadOnly
	WriteOnly = transput.WriteOnly
	Buffered  = transput.Buffered

	RoleSource = transput.RoleSource
	RoleFilter = transput.RoleFilter
	RoleSink   = transput.RoleSink
	RoleBuffer = transput.RoleBuffer

	// FusionOff (the default) builds one Eject per stage — the paper's
	// exact accounting; FusionOn fuses adjacent co-located stages.
	FusionOff = transput.FusionOff
	FusionOn  = transput.FusionOn
)

// SystemConfig parameterises a simulated Eden system.
type SystemConfig struct {
	// Nodes is the number of simulated machines (default 1).
	Nodes int
	// LocalLatency / CrossLatency charge invocation hops (default 0:
	// pure counting).
	LocalLatency time.Duration
	CrossLatency time.Duration
	// EncodePayloads gob-encodes cross-node payloads so serialisation
	// cost is real.
	EncodePayloads bool
	// DeterministicUIDs seeds reproducible UIDs (tests).
	DeterministicUIDs uint64
}

// System is one simulated Eden installation.
type System struct {
	k *kernel.Kernel
}

// NewSystem boots a simulated Eden system.
func NewSystem(cfg SystemConfig) *System {
	k := kernel.New(kernel.Config{
		Net: netsim.Config{
			Nodes:          cfg.Nodes,
			LocalLatency:   cfg.LocalLatency,
			CrossLatency:   cfg.CrossLatency,
			EncodePayloads: cfg.EncodePayloads,
		},
		DeterministicUIDs: cfg.DeterministicUIDs,
	})
	return &System{k: k}
}

// Kernel exposes the underlying Eden kernel for advanced wiring
// (devices, file system, custom Ejects).
func (s *System) Kernel() *kernel.Kernel { return s.k }

// Metrics snapshots every meter in the system.
func (s *System) Metrics() Snapshot { return s.k.Metrics().Snapshot() }

// Close shuts the system down, stopping every Eject.
func (s *System) Close() { s.k.Shutdown() }

// Pipeline builds src | filters... | sink under the given discipline.
func (s *System) Pipeline(d Discipline, src SourceFunc, fs []Filter, sink SinkFunc, opt Options) (*Pipeline, error) {
	return transput.BuildPipeline(s.k, d, src, fs, sink, opt)
}

// UnixSystem builds the Figure 1 baseline sharing this system's
// metric set, so Syscalls and Invocations can be compared on one
// snapshot.
func (s *System) UnixSystem() *unixpipe.System {
	return unixpipe.NewSystem(s.k.Metrics())
}

// LinesSource returns a SourceFunc emitting text as line items.
func LinesSource(text string) SourceFunc {
	items := transput.SplitLines([]byte(text))
	return func(out ItemWriter) error {
		for _, it := range items {
			if err := out.Put(it); err != nil {
				return err
			}
		}
		return nil
	}
}

// ItemsSource returns a SourceFunc emitting the given items (copied).
func ItemsSource(items [][]byte) SourceFunc {
	cp := make([][]byte, len(items))
	for i, it := range items {
		cp[i] = append([]byte(nil), it...)
	}
	return func(out ItemWriter) error {
		for _, it := range cp {
			if err := out.Put(it); err != nil {
				return err
			}
		}
		return nil
	}
}

// CollectSink returns a SinkFunc appending items to *dst.
func CollectSink(dst *[][]byte) SinkFunc {
	return func(in ItemReader) error {
		for {
			item, err := in.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			*dst = append(*dst, item)
		}
	}
}

// DiscardSink returns a SinkFunc that counts items into *n and drops
// them.
func DiscardSink(n *int64) SinkFunc {
	return func(in ItemReader) error {
		for {
			_, err := in.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			if n != nil {
				*n++
			}
		}
	}
}
