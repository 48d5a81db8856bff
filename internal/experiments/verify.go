package experiments

import (
	"fmt"
	"math"

	"asymstream/internal/transput"
)

// Verify re-derives the paper's counting claims from live runs and
// returns a list of violations (empty = the reproduction holds).  It
// is the regression gate behind `transput-bench -check`: the same
// assertions the test suite makes, available from the built binary so
// a deployment can self-validate.
func Verify(p Params) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	for _, n := range p.Ns {
		// Figure 2: n+1 invocations per datum, n+2 Ejects.
		ro, err := RunLinear(transput.ReadOnly, n, p.Items, transput.Options{})
		if err != nil {
			fail("read-only n=%d: %v", n, err)
			continue
		}
		if ro.Ejects != n+2 {
			fail("read-only n=%d: %d Ejects, paper predicts %d", n, ro.Ejects, n+2)
		}
		if d := math.Abs(ro.PerDatum() - float64(n+1)); d > 0.2 {
			fail("read-only n=%d: %.3f inv/datum, paper predicts %d", n, ro.PerDatum(), n+1)
		}

		// The adaptive data plane pinned to the paper's accounting
		// (BatchMin = BatchMax = 1) must reproduce the same figure:
		// the AIMD controller changes how many invocations carry the
		// stream, never what the batch-1 model predicts.
		pin, err := RunLinear(transput.ReadOnly, n, p.Items,
			transput.Options{BatchMin: 1, BatchMax: 1})
		if err != nil {
			fail("pinned read-only n=%d: %v", n, err)
			continue
		}
		if d := math.Abs(pin.PerDatum() - float64(n+1)); d > 0.2 {
			fail("pinned read-only n=%d: %.3f inv/datum, paper predicts %d (adaptive controller at batch 1)",
				n, pin.PerDatum(), n+1)
		}

		// §4 baseline: 2n+2 and 2n+3.
		bu, err := RunLinear(transput.Buffered, n, p.Items, transput.Options{})
		if err != nil {
			fail("buffered n=%d: %v", n, err)
			continue
		}
		if bu.Ejects != 2*n+3 {
			fail("buffered n=%d: %d Ejects, paper predicts %d", n, bu.Ejects, 2*n+3)
		}
		if d := math.Abs(bu.PerDatum() - float64(2*n+2)); d > 0.4 {
			fail("buffered n=%d: %.3f inv/datum, paper predicts %d", n, bu.PerDatum(), 2*n+2)
		}

		// "Roughly half as many invocations".
		if ratio := bu.PerDatum() / ro.PerDatum(); ratio < 1.8 || ratio > 2.2 {
			fail("n=%d: invocation ratio %.2f, paper predicts ≈2", n, ratio)
		}

		// §5 duality.
		wo, err := RunLinear(transput.WriteOnly, n, p.Items, transput.Options{})
		if err != nil {
			fail("write-only n=%d: %v", n, err)
			continue
		}
		if d := math.Abs(wo.PerDatum() - ro.PerDatum()); d > 0.3 {
			fail("n=%d: duality broken (wo %.2f vs ro %.2f inv/datum)", n, wo.PerDatum(), ro.PerDatum())
		}

		// Figure 1: 2n+2 syscalls per datum, n+1 pipes, n+2 processes.
		ux, pipes, procs, err := RunUnix(n, p.Items, 64)
		if err != nil {
			fail("unix n=%d: %v", n, err)
			continue
		}
		if pipes != n+1 || procs != n+2 {
			fail("unix n=%d: %d pipes / %d processes, paper predicts %d / %d", n, pipes, procs, n+1, n+2)
		}
		per := float64(ux.DataInvocations-int64(2*(n+1))) / float64(ux.Items)
		if d := math.Abs(per - float64(2*n+2)); d > 0.2 {
			fail("unix n=%d: %.3f syscalls/datum, paper predicts %d", n, per, 2*n+2)
		}
	}

	// Parallel engine: sharded and windowed pipelines keep the sink
	// output byte-identical and the per-datum counts at the paper's
	// figures, with Ejects scaling to n·P+2.
	bad = append(bad, VerifyParallel(p)...)

	// Fusion compiler: fused pipelines are byte-identical, collapse to
	// 2 Ejects / ~1 inv per datum when fully co-located, and fusion off
	// reproduces the paper's exact counts.
	bad = append(bad, VerifyFusion(p)...)

	// Real wire: over Unix-domain and TCP sockets the sink digests stay
	// byte-identical to netsim's, the paper's counts hold at batch 1,
	// and the slab leak audit stays clean — including under abort.
	bad = append(bad, VerifyTransport(p)...)

	// The graph walk: §5's native fan directions and Figure 4 at exact
	// counts.
	bad = append(bad, VerifyGraph(p)...)
	return bad
}

// VerifyGraph holds graphs built through the one walk at batch 1 with
// fusion off: read-only fan-in and write-only fan-out at k = 4, and
// Figure 4 with capability channels.  Each has one Eject a node, exactly
// its items at every sink, and data invocations in [moved, moved +
// edges], where moved counts every item once on every edge it crosses:
// one datum an invocation, and at most one End exchange an edge.
func VerifyGraph(p Params) []string {
	var bad []string
	check := func(row string, ejects, wantEjects, inv, moved, edges int64) {
		if ejects != wantEjects {
			bad = append(bad, fmt.Sprintf("%s: %d Ejects, want %d", row, ejects, wantEjects))
		}
		if inv < moved || inv > moved+edges {
			bad = append(bad, fmt.Sprintf("%s: %d data invocations, want %d plus at most %d End exchanges", row, inv, moved, edges))
		}
	}
	const k = 4
	items := int64(p.Items)
	for _, topo := range fanTopologies[:2] {
		row := fmt.Sprintf("%s k=%d", topo.name, k)
		got, res, err := runFan(topo, k, p.Items)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", row, err))
			continue
		}
		for i, n := range got {
			if want := items * k / int64(len(got)); n != want {
				bad = append(bad, fmt.Sprintf("%s: sink %d got %d items, want %d", row, i, n, want))
			}
		}
		check(row, res.Ejects, k+1, res.DataInv, items*k, k)
	}
	row := "Figure 4 with capability channels"
	res, err := RunFigure4(p.Items, true)
	if err != nil {
		return append(bad, fmt.Sprintf("%s: %v", row, err))
	}
	reports := int64(2 * (p.Items/reportEvery + 1))
	if res.Items != items || int64(res.ReportLines) != reports {
		bad = append(bad, fmt.Sprintf("%s: sink got %d items and window %d reports, want %d and %d", row, res.Items, res.ReportLines, items, reports))
	}
	check(row, res.Ejects, 5, res.DataInv, 3*items+reports, 5)
	return bad
}
