package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"asymstream/internal/transput"
)

// This file measures and verifies the stage-fusion compiler (§6 of
// DESIGN.md): at Build time, adjacent co-located asymmetric stages are
// compiled into a single Eject, so a fully co-located n-filter chain
// moves each datum with ~1 data invocation instead of the paper's n+1.
// The paper's counts are placement prices; fusion only pays them where
// there is a placement boundary to buy.

// fusionGrid is the benchmark grid: every (n, discipline, batching)
// point is measured with fusion off and on.
var (
	fusionNs        = []int{2, 4, 8}
	fusionBatchings = []struct {
		name string
		opt  transput.Options
	}{
		{"fixed-1", transput.Options{}},
		{"fixed-4", transput.Options{Batch: 4}},
		{"adaptive[1,64]", transput.Options{BatchMin: 1, BatchMax: 64}},
	}
)

// FusionBenchRecord is one fused-vs-unfused measurement pair collapsed
// into a row: same pipeline shape, same batching, only Options.Fusion
// differs.
type FusionBenchRecord struct {
	Pipeline   string `json:"pipeline"`
	Discipline string `json:"discipline"`
	Filters    int    `json:"filters"`
	Batching   string `json:"batching"`
	Items      int64  `json:"items"`

	UnfusedNsPerOp  float64 `json:"unfused_ns_per_op"`
	FusedNsPerOp    float64 `json:"fused_ns_per_op"`
	Speedup         float64 `json:"speedup"`
	UnfusedInvDatum float64 `json:"unfused_invocations_per_datum"`
	FusedInvDatum   float64 `json:"fused_invocations_per_datum"`
	UnfusedEjects   int     `json:"unfused_ejects"`
	FusedEjects     int     `json:"fused_ejects"`
	UnfusedAllocs   float64 `json:"unfused_allocs_per_op"`
	FusedAllocs     float64 `json:"fused_allocs_per_op"`
}

// FusionBenchReport is BENCH_fusion.json, one of the documents
// transput-bench -json writes into -json-dir.
type FusionBenchReport struct {
	Items   int                 `json:"items"`
	Records []FusionBenchRecord `json:"records"`
}

func runFusionPoint(d transput.Discipline, n, items int, opt transput.Options) (LinearResult, float64, error) {
	before := mallocs()
	res, err := RunLinear(d, n, items, opt)
	if err != nil {
		return res, 0, err
	}
	allocs := float64(mallocs()-before) / float64(res.Items)
	return res, allocs, nil
}

// RunFusionBench measures the fused-vs-unfused grid.  The E2-readonly
// batch-1 rows are the headline: at batch 1 every elided hop is a full
// invocation round trip, so fusion's effect is largest exactly where
// the paper's accounting is strictest.
func RunFusionBench(items int) (FusionBenchReport, error) {
	rep := FusionBenchReport{Items: items}
	for _, d := range []transput.Discipline{transput.ReadOnly, transput.WriteOnly} {
		name := "E2-readonly"
		if d == transput.WriteOnly {
			name = "E4-writeonly"
		}
		for _, n := range fusionNs {
			for _, b := range fusionBatchings {
				off := b.opt
				off.Fusion = transput.FusionOff
				on := b.opt
				on.Fusion = transput.FusionOn
				ures, uAllocs, err := runFusionPoint(d, n, items, off)
				if err != nil {
					return rep, fmt.Errorf("fusion bench %s n=%d %s off: %w", name, n, b.name, err)
				}
				fres, fAllocs, err := runFusionPoint(d, n, items, on)
				if err != nil {
					return rep, fmt.Errorf("fusion bench %s n=%d %s on: %w", name, n, b.name, err)
				}
				rec := FusionBenchRecord{
					Pipeline:        fmt.Sprintf("%s-%s", name, b.name),
					Discipline:      d.String(),
					Filters:         n,
					Batching:        b.name,
					Items:           fres.Items,
					UnfusedInvDatum: ures.PerDatum(),
					FusedInvDatum:   fres.PerDatum(),
					UnfusedEjects:   ures.Ejects,
					FusedEjects:     fres.Ejects,
					UnfusedAllocs:   uAllocs,
					FusedAllocs:     fAllocs,
				}
				if ures.Items > 0 {
					rec.UnfusedNsPerOp = float64(ures.Elapsed.Nanoseconds()) / float64(ures.Items)
				}
				if fres.Items > 0 {
					rec.FusedNsPerOp = float64(fres.Elapsed.Nanoseconds()) / float64(fres.Items)
				}
				if rec.FusedNsPerOp > 0 {
					rec.Speedup = rec.UnfusedNsPerOp / rec.FusedNsPerOp
				}
				rep.Records = append(rep.Records, rec)
			}
		}
	}
	return rep, nil
}

// WriteFusionBenchJSON runs RunFusionBench and writes the report to
// path as indented JSON.
func WriteFusionBenchJSON(path string, items int) error {
	rep, err := RunFusionBench(items)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FusionTable is experiment E12: the fused-vs-unfused grid as a
// printable table.
func FusionTable(items int) (Table, error) {
	t := Table{
		ID:      "E12",
		Title:   "stage fusion — fused vs unfused: invocations, Ejects, wall-clock",
		Columns: []string{"pipeline", "n", "batching", "inv/datum off→on", "ejects off→on", "ns/op off→on", "speedup"},
		Notes: []string{
			"fusion compiles adjacent co-located stages into one Eject; counts with fusion off are the paper's",
		},
	}
	rep, err := RunFusionBench(items)
	if err != nil {
		return t, err
	}
	for _, r := range rep.Records {
		t.Rows = append(t.Rows, []string{
			r.Pipeline,
			fmt.Sprintf("%d", r.Filters),
			r.Batching,
			fmt.Sprintf("%.2f→%.2f", r.UnfusedInvDatum, r.FusedInvDatum),
			fmt.Sprintf("%d→%d", r.UnfusedEjects, r.FusedEjects),
			fmt.Sprintf("%.0f→%.0f", r.UnfusedNsPerOp, r.FusedNsPerOp),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return t, nil
}

// VerifyFusion checks the fusion compiler's contract from live runs:
// fused pipelines are byte-identical to unfused ones, a fully
// co-located chain collapses to 2 Ejects and ~1 invocation per datum,
// and — the part the paper's claims rest on — Options.Fusion off
// reproduces the exact n+1 / n+2 accounting.
func VerifyFusion(p Params) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	for _, n := range p.Ns {
		for _, d := range []transput.Discipline{transput.ReadOnly, transput.WriteOnly} {
			off, offDig, err := RunLinearDigest(d, n, p.Items, transput.Options{Fusion: transput.FusionOff})
			if err != nil {
				fail("fusion-off %v n=%d: %v", d, n, err)
				continue
			}
			on, onDig, err := RunLinearDigest(d, n, p.Items, transput.Options{Fusion: transput.FusionOn})
			if err != nil {
				fail("fusion-on %v n=%d: %v", d, n, err)
				continue
			}
			if offDig != onDig {
				fail("%v n=%d: fusion changed the byte stream (digest %s vs %s)", d, n, onDig, offDig)
			}
			// Explicit off must be the paper's accounting, bit for bit
			// with the zero-value default.
			if off.Ejects != n+2 {
				fail("fusion-off %v n=%d: %d Ejects, paper predicts %d", d, n, off.Ejects, n+2)
			}
			if diff := math.Abs(off.PerDatum() - float64(n+1)); diff > 0.2 {
				fail("fusion-off %v n=%d: %.3f inv/datum, paper predicts %d", d, n, off.PerDatum(), n+1)
			}
			// Fully co-located: one fused group absorbs everything but
			// the pump, so 2 Ejects and ~1 data invocation per datum.
			if on.Ejects != 2 {
				fail("fusion-on %v n=%d: %d Ejects, fusion predicts 2", d, n, on.Ejects)
			}
			if diff := math.Abs(on.PerDatum() - 1); diff > 0.2 {
				fail("fusion-on %v n=%d: %.3f inv/datum, fusion predicts 1", d, n, on.PerDatum())
			}
		}

		// Boundaries stay real: sharded filters are never fused, and a
		// sharded windowed chain built with fusion on must still deliver
		// the identical byte stream.
		if n >= 2 {
			_, mixOffDig, err := RunLinearDigest(transput.ReadOnly, n, p.Items,
				transput.Options{Shards: 2, Window: 2})
			if err != nil {
				fail("mixed fusion-off n=%d: %v", n, err)
				continue
			}
			_, mixOnDig, err := RunLinearDigest(transput.ReadOnly, n, p.Items,
				transput.Options{Shards: 2, Window: 2, Fusion: transput.FusionOn})
			if err != nil {
				fail("mixed fusion-on n=%d: %v", n, err)
				continue
			}
			if mixOffDig != mixOnDig {
				fail("mixed n=%d: fusion changed the sharded byte stream", n)
			}
		}

		// Buffered pipelines refuse fusion outright.
		bu, err := RunLinear(transput.Buffered, n, p.Items, transput.Options{Fusion: transput.FusionOn})
		if err != nil {
			fail("buffered fusion-on n=%d: %v", n, err)
			continue
		}
		if bu.Ejects != 2*n+3 {
			fail("buffered fusion-on n=%d: %d Ejects, must stay %d (fusion refused)", n, bu.Ejects, 2*n+3)
		}
	}
	return bad
}
