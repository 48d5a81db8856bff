package transput

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"asymstream/internal/uid"
)

// Model-based test for the fusion pass: a random chain of byte
// transforms compiled into one fused group must behave exactly like
// the same transforms applied in plain Go — no reorder, no drop, no
// duplicate, no transform skipped or doubled.
func TestFusedChainAgainstFIFOModel(t *testing.T) {
	transforms := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"upper", bytes.ToUpper},
		{"dup", func(b []byte) []byte { return append(append([]byte(nil), b...), b...) }},
		{"pass", func(b []byte) []byte { return b }},
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 131))
			k := testKernel(t)
			nItems := rng.Intn(200) + 1
			model := make([][]byte, nItems)
			for i := range model {
				model[i] = []byte(fmt.Sprintf("item %d", i))
			}
			n := rng.Intn(4) + 1
			fs := make([]Filter, n)
			want := make([][]byte, nItems)
			for i := range want {
				want[i] = model[i]
			}
			for i := 0; i < n; i++ {
				tr := transforms[rng.Intn(len(transforms))]
				fn := tr.fn
				fs[i] = Filter{Name: fmt.Sprintf("%s%d", tr.name, i), Body: func(ins []ItemReader, outs []ItemWriter) error {
					for {
						item, err := ins[0].Next()
						if err == io.EOF {
							return nil
						}
						if err != nil {
							return err
						}
						if err := PutOwned(outs[0], fn(item)); err != nil {
							return err
						}
					}
				}}
				for j := range want {
					want[j] = fn(want[j])
				}
			}
			src := func(out ItemWriter) error {
				for _, item := range model {
					if err := out.Put(item); err != nil {
						return err
					}
				}
				return nil
			}
			var got [][]byte
			p, err := BuildPipeline(k, ReadOnly, src, fs, collectSink(&got), Options{
				Fusion:   FusionOn,
				Batch:    rng.Intn(5) + 1,
				Prefetch: rng.Intn(3),
				Window:   rng.Intn(4) + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			if p.Ejects() != 2 {
				t.Fatalf("fully fusable chain compiled to %d Ejects, want 2", p.Ejects())
			}
			if len(got) != nItems {
				t.Fatalf("n=%d: got %d items, want %d", n, len(got), nItems)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("n=%d: item %d = %q, model says %q", n, i, got[i], want[i])
				}
			}
		})
	}
}

// Model-based test for the OutPort/InPort pair: a random pattern of
// producer pauses, consumer batch sizes and anticipation bounds must
// never reorder, drop or duplicate items.
func TestOutPortAgainstFIFOModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 977))
			k := testKernel(t)
			nItems := rng.Intn(300) + 1
			anticipation := rng.Intn(10) - 1 // includes -1 (sync) and 0 (default)
			model := make([][]byte, nItems)
			for i := range model {
				model[i] = []byte(fmt.Sprintf("i%d", i))
			}
			st := NewROStage(k, ROStageConfig{Name: "model", Anticipation: anticipation},
				func(_ []ItemReader, outs []ItemWriter) error {
					for _, item := range model {
						if err := outs[0].Put(item); err != nil {
							return err
						}
					}
					return nil
				})
			id := k.NewUID()
			if err := k.CreateWithUID(id, st, 0); err != nil {
				t.Fatal(err)
			}
			st.Start()
			in := NewInPort(k, uid.Nil, id, Chan(0), InPortConfig{
				Batch:    rng.Intn(9) + 1,
				Prefetch: rng.Intn(3),
				Window:   rng.Intn(4) + 1,
			})
			var got [][]byte
			for {
				item, err := in.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, item)
			}
			if len(got) != nItems {
				t.Fatalf("anticipation=%d: got %d, want %d", anticipation, len(got), nItems)
			}
			for i := range model {
				if !bytes.Equal(got[i], model[i]) {
					t.Fatalf("anticipation=%d: item %d = %q want %q", anticipation, i, got[i], model[i])
				}
			}
		})
	}
}
