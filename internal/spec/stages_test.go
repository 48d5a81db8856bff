package spec

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"asymstream/internal/kernel"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// refuses is the observation that an Eject does not perform op: the
// invocation fails with kernel.ErrNoSuchOperation.
func refuses(op string, req func() any) Spec {
	return Spec{
		Name: "refuses " + op,
		Probes: []Probe{{
			Name:       op + " is refused",
			Op:         op,
			Request:    req,
			AllowError: func(err error) bool { return errors.Is(err, kernel.ErrNoSuchOperation) },
		}},
	}
}

// advertisesNothing observes an Eject that declares no channel: it
// answers Channels, with an empty list.
func advertisesNothing() Spec {
	return Spec{
		Name: "advertises no channels",
		Probes: []Probe{{
			Name:    "Channels answers with no channels",
			Op:      transput.OpChannels,
			Request: func() any { return &transput.ChannelsRequest{} },
			Validate: func(raw any) error {
				rep, err := expect[*transput.ChannelsReply](raw)
				if err != nil {
					return err
				}
				if len(rep.Channels) != 0 {
					return fmt.Errorf("advertises %d channels", len(rep.Channels))
				}
				return nil
			},
		}},
	}
}

// conformsAll checks target against every spec in order.
func conformsAll(t *testing.T, k *kernel.Kernel, what string, target uid.UID, specs ...Spec) {
	t.Helper()
	for _, s := range specs {
		if err := Conforms(k, uid.Nil, target, s); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
}

// TestStagesConform observes the stage Ejects from outside, as §2 says
// any client can: a stage is the transput primitives it performs
// passively, whatever its Go type.  A read-only stage is a source and
// nothing else, a write-only stage a sink and nothing else; a
// conventional stage and a pipeline's sink pump perform active
// transput only, so they serve no stream and advertise no channel; and
// a passive buffer, which does both passive primitives, is a source and
// a sink at once — the superset rule on the buffered discipline's
// interpreter.
func TestStagesConform(t *testing.T) {
	k := specKernel(t)
	deliver := func() any {
		return &transput.DeliverRequest{Channel: transput.Chan(0), Items: [][]byte{[]byte("x")}}
	}
	transfer := func() any { return &transput.TransferRequest{Channel: transput.Chan(0), Max: 1} }
	drain := func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
		for {
			if _, err := ins[0].Next(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}

	t.Run("read-only source", func(t *testing.T) {
		st := transput.NewROStage(k, transput.ROStageConfig{Name: "source"},
			func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
				return outs[0].Put([]byte("x"))
			})
		id, err := k.Create(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		conformsAll(t, k, "read-only source", id,
			SourceSpec(st.Writer(0).ID()), refuses(transput.OpDeliver, deliver))
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("write-only sink", func(t *testing.T) {
		st := transput.NewWOStage(k, transput.WOStageConfig{Name: "sink"}, drain)
		id, err := k.Create(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		conformsAll(t, k, "write-only sink", id,
			SinkSpec(st.Reader(0).ID()), refuses(transput.OpTransfer, transfer))
	})

	t.Run("conventional stage", func(t *testing.T) {
		st := transput.NewConvStage("conventional", drain, nil, nil)
		id, err := k.Create(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		conformsAll(t, k, "conventional stage", id,
			NotAStreamSpec(), refuses(transput.OpDeliver, deliver), advertisesNothing())
	})

	t.Run("sink pump", func(t *testing.T) {
		p, err := transput.BuildPipeline(k, transput.ReadOnly,
			func(transput.ItemWriter) error { return nil }, nil,
			func(in transput.ItemReader) error { return drain([]transput.ItemReader{in}, nil) },
			transput.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Destroy()
		conformsAll(t, k, "sink pump", p.SinkUID,
			NotAStreamSpec(), refuses(transput.OpDeliver, deliver), advertisesNothing())
	})

	t.Run("passive buffer", func(t *testing.T) {
		b := transput.NewPassiveBuffer(k, transput.PassiveBufferConfig{Name: "pipe"})
		id, err := k.Create(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		conformsAll(t, k, "passive buffer", id, SinkSpec(transput.Chan(0)), SourceSpec(transput.Chan(0)))
	})
}
