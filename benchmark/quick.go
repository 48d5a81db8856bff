package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"

	"asymstream/internal/filters"
	"asymstream/internal/kernel"
	"asymstream/internal/transput"
)

// runQuick is the correctness pass: one repetition of every workload
// at 1/100 scale through the same oracle as a timed run, then the
// configurations no workload times — the buffered discipline, shards
// and fusion — through a full sha256 comparison.  Nothing here is a
// measurement.  It returns the number of failures.
func runQuick(w io.Writer, seed int64) int {
	failed := 0
	for _, wl := range workloads {
		r := wl.rep(repConfig{seed: seed, scale: quickScale})
		fmt.Fprintf(w, "%-18s %8d items  %d of %d operations failed\n", wl.name, r.items, r.failed, r.attempted)
		for _, why := range r.why {
			fmt.Fprintln(w, "  FAILED:", why)
		}
		failed += r.failed
	}
	for _, why := range digestGrid(seed) {
		fmt.Fprintln(w, "  FAILED:", why)
		failed++
	}
	fmt.Fprintf(w, "%-18s discipline x shards x fusion digests compared\n", "digest-grid")
	return failed
}

// foldSHA is the grid's stream digest: every item's length and bytes.
func foldSHA(h hash.Hash, item []byte) {
	var l [8]byte
	binary.BigEndian.PutUint64(l[:], uint64(len(item)))
	h.Write(l[:])
	h.Write(item)
}

// digestGrid runs source | 3 identity filters | sink under every
// discipline, sequential and 3-way sharded, fusion off and on, and
// compares the sink's sha256 with the generator's.  It returns one line
// per mismatch.
func digestGrid(seed int64) []string {
	const items, size, nfilters = 2000, 48, 3
	g := newGenerator(seed, size)
	want := sha256.New()
	for seq := 0; seq < items; seq++ {
		foldSHA(want, g.item(uint64(seq)))
	}
	wantHex := hex.EncodeToString(want.Sum(nil))

	var bad []string
	for _, d := range []transput.Discipline{transput.ReadOnly, transput.WriteOnly, transput.Buffered} {
		for _, shards := range []int{1, 3} {
			for _, fusion := range []transput.FusionMode{transput.FusionOff, transput.FusionOn} {
				label := fmt.Sprintf("%s shards=%d fusion=%d", d, shards, fusion)
				got, err := digestOnce(g, d, items, nfilters, transput.Options{
					BatchMin: 1, BatchMax: 16, Window: 2, Shards: shards, Fusion: fusion,
				})
				switch {
				case err != nil:
					bad = append(bad, fmt.Sprintf("%s: %v", label, err))
				case got != wantHex:
					bad = append(bad, fmt.Sprintf("%s: sink digest %s, generator's %s", label, got[:12], wantHex[:12]))
				}
			}
		}
	}
	return bad
}

func digestOnce(g *generator, d transput.Discipline, items, nfilters int, opt transput.Options) (string, error) {
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	src := func(out transput.ItemWriter) error {
		for seq := 0; seq < items; seq++ {
			if err := out.Put(g.item(uint64(seq))); err != nil {
				return err
			}
		}
		return nil
	}
	h := sha256.New()
	sink := func(in transput.ItemReader) error {
		for {
			item, err := in.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			foldSHA(h, item)
		}
	}
	fs := make([]transput.Filter, nfilters)
	for i := range fs {
		fs[i] = transput.Filter{Name: fmt.Sprintf("f%d", i), Body: filters.Identity()}
	}
	p, err := transput.BuildPipeline(k, d, src, fs, sink, opt)
	if err != nil {
		return "", err
	}
	defer p.Destroy()
	if err := p.Run(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
