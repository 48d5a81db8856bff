package experiments

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"asymstream/internal/transput"
)

// quickParams keeps the experiment tests fast.
var quickParams = Params{Ns: []int{1, 3}, Items: 200}

func TestRunLinearCountsMatchPaper(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		ro, err := RunLinear(transput.ReadOnly, n, 400, transput.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ro.Ejects != n+2 {
			t.Errorf("read-only n=%d ejects = %d, want %d", n, ro.Ejects, n+2)
		}
		if per := ro.PerDatum(); math.Abs(per-float64(n+1)) > 0.2 {
			t.Errorf("read-only n=%d inv/datum = %.3f, want ≈%d", n, per, n+1)
		}
		bu, err := RunLinear(transput.Buffered, n, 400, transput.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if bu.Ejects != 2*n+3 {
			t.Errorf("buffered n=%d ejects = %d, want %d", n, bu.Ejects, 2*n+3)
		}
		if per := bu.PerDatum(); math.Abs(per-float64(2*n+2)) > 0.4 {
			t.Errorf("buffered n=%d inv/datum = %.3f, want ≈%d", n, per, 2*n+2)
		}
		ratio := bu.PerDatum() / ro.PerDatum()
		if ratio < 1.8 || ratio > 2.2 {
			t.Errorf("n=%d invocation ratio = %.2f, want ≈2 ('roughly half')", n, ratio)
		}
		wo, err := RunLinear(transput.WriteOnly, n, 400, transput.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(wo.PerDatum()-ro.PerDatum()) > 0.3 {
			t.Errorf("n=%d duality broken: wo=%.2f ro=%.2f", n, wo.PerDatum(), ro.PerDatum())
		}
	}
}

func TestRunUnixMatchesFigure1(t *testing.T) {
	for _, n := range []int{1, 4} {
		res, pipes, procs, err := RunUnix(n, 400, 64)
		if err != nil {
			t.Fatal(err)
		}
		if pipes != n+1 || procs != n+2 {
			t.Errorf("n=%d: pipes=%d procs=%d", n, pipes, procs)
		}
		per := float64(res.DataInvocations-int64(2*(n+1))) / float64(res.Items)
		if math.Abs(per-float64(2*n+2)) > 0.2 {
			t.Errorf("n=%d syscalls/datum = %.3f, want %d", n, per, 2*n+2)
		}
	}
}

// cell extracts Rows[r][c] from a table as float.
func cellFloat(t *testing.T, tb Table, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tb.Rows[r][c], "x"), 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q: %v", tb.ID, r, c, tb.Rows[r][c], err)
	}
	return v
}

func TestE5LazinessInvariants(t *testing.T) {
	tb, err := E5Laziness(150)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] != "0" {
			t.Errorf("%s: %s transfers before sink, want 0", row[0], row[1])
		}
		if row[4] != "150" {
			t.Errorf("%s: drained %s items", row[0], row[4])
		}
	}
	// Lazy mode computes nothing ahead.
	if tb.Rows[0][2] != "0" {
		t.Errorf("lazy precomputed %s items", tb.Rows[0][2])
	}
	// Anticipation 4 computes at most 4 ahead.
	if v := cellFloat(t, tb, 1, 2); v > 4 {
		t.Errorf("anticipation-4 precomputed %v items", v)
	}
}

func TestFigure3And4Results(t *testing.T) {
	const items = 150
	r3, err := RunFigure3(items)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunFigure4(items, false)
	if err != nil {
		t.Fatal(err)
	}
	wantReports := 2 * (items/reportEvery + 1)
	for name, r := range map[string]FigureResult{"fig3": r3, "fig4": r4} {
		if r.Items != items {
			t.Errorf("%s items = %d", name, r.Items)
		}
		if r.ReportLines != wantReports {
			t.Errorf("%s reports = %d, want %d", name, r.ReportLines, wantReports)
		}
		if r.Ejects != 5 {
			t.Errorf("%s ejects = %d, want 5", name, r.Ejects)
		}
	}
	// Capability mode preserves behaviour.
	r4c, err := RunFigure4(items, true)
	if err != nil {
		t.Fatal(err)
	}
	if r4c.Items != items || r4c.ReportLines != wantReports {
		t.Errorf("fig4 cap mode: %+v", r4c)
	}
}

func TestE8SecurityMatrix(t *testing.T) {
	tb, err := E8Capability(50)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := map[string]string{}
	for _, row := range tb.Rows {
		outcomes[row[0]] = row[1]
	}
	if !strings.Contains(outcomes["holder of channel capability"], "read 50 items") {
		t.Errorf("holder: %q", outcomes["holder of channel capability"])
	}
	if !strings.Contains(outcomes["integer channel 0 (no capability)"], "refused") {
		t.Errorf("integer forge: %q", outcomes["integer channel 0 (no capability)"])
	}
	if !strings.Contains(outcomes["guessed 128-bit capability"], "refused") {
		t.Errorf("guess: %q", outcomes["guessed 128-bit capability"])
	}
}

func TestAblationsRun(t *testing.T) {
	if _, err := A1BatchSweep(2, 150); err != nil {
		t.Fatal(err)
	}
	if _, err := A2PrefetchSweep(2, 150); err != nil {
		t.Fatal(err)
	}
	if _, err := A3RecordStream(100); err != nil {
		t.Fatal(err)
	}
	a4, err := A4DispatchPaths(500)
	if err != nil {
		t.Fatal(err)
	}
	// Two dispatch paths, one accounting: an invocation is one
	// invocation and two logical switches whichever goroutine serves it.
	for row := range a4.Rows {
		if inv, sw := cellFloat(t, a4, row, 2), cellFloat(t, a4, row, 3); inv != 1 || sw != 2 {
			t.Errorf("A4 %q: %.3f inv/call, %.3f switches/call, want 1 and 2", a4.Rows[row][0], inv, sw)
		}
	}
	if _, err := A5PayloadSweep(2); err != nil {
		t.Fatal(err)
	}
}

func TestA1BatchingReducesInvocations(t *testing.T) {
	tb, err := A1BatchSweep(2, 400)
	if err != nil {
		t.Fatal(err)
	}
	first := cellFloat(t, tb, 0, 1)             // batch 1
	last := cellFloat(t, tb, len(tb.Rows)-1, 1) // batch 128
	if last >= first/4 {
		t.Errorf("batching did not amortise: batch1=%.3f batch128=%.3f", first, last)
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(nil, quickParams, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, tableID := range []string{
		"E1 —", "E2 —", "E3 —", "E4 —", "E2/E3 —", "E5 —", "E6 —",
		"E7 —", "E8 —", "E9 —", "E9b —", "E10 —", "A1 —", "A2 —", "A3 —", "A4 —", "A5 —",
	} {
		if !strings.Contains(out, tableID) {
			t.Errorf("output missing table %q", tableID)
		}
	}
	// Every registered id is runnable individually too (spot check).
	buf.Reset()
	if err := Run([]string{"e2"}, quickParams, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Errorf("e2 output = %q", buf.String())
	}
}

func TestE10FanMatrix(t *testing.T) {
	tb, err := E10Fan([]int{2, 3}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		k, _ := strconv.Atoi(row[1])
		moved, _ := strconv.Atoi(row[2])
		ejects, _ := strconv.Atoi(row[3])
		if moved != 60*k {
			t.Errorf("%s k=%d moved %d items, want %d", row[0], k, moved, 60*k)
		}
		// One Eject a node: the read-only fan-out's k pullers are sink
		// nodes too.
		if wantEjects := k + 1; ejects != wantEjects {
			t.Errorf("%s k=%d used %d ejects, want %d", row[0], k, ejects, wantEjects)
		}
	}
}

func TestRegistryUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run([]string{"nope"}, quickParams, &buf); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestTableFormat(t *testing.T) {
	tb := Table{
		ID:      "T",
		Title:   "test",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	out := tb.Format()
	if !strings.Contains(out, "T — test") || !strings.Contains(out, "note: a note") {
		t.Fatalf("format = %q", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatalf("format lines = %d", len(lines))
	}
}

func TestGatewaySmall(t *testing.T) {
	// A miniature run of the E13 ingress-gateway workload: every phase
	// (admission, steady state, churn) executes and the invariants the
	// full benchmark asserts — items conserved, no slab leaks, channel
	// population restored — hold at toy scale too.
	rep, err := RunGateway(300, 8, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChannelsLiveEnd != 600 {
		t.Errorf("ChannelsLiveEnd = %d, want 600", rep.ChannelsLiveEnd)
	}
	if rep.SlabLeaked != 0 {
		t.Errorf("SlabLeaked = %d", rep.SlabLeaked)
	}
	if rep.SteadyItemsPerSec <= 0 || rep.AdmitChannelsPerSec <= 0 || rep.ChurnChannelsPerSec <= 0 {
		t.Errorf("degenerate rates: %+v", rep)
	}
	if rep.CapCacheHits == 0 {
		t.Error("steady phase produced no capability-cache hits")
	}
	if rep.GaugeBytesPerIdleChannel <= 0 {
		t.Errorf("gauge bytes/idle channel = %.1f", rep.GaugeBytesPerIdleChannel)
	}
}

func TestGatewaySoak(t *testing.T) {
	// Scaled-down soak for the nightly -race job: big enough to churn
	// the pooled records and thrash the capability cache under the
	// race detector, small enough to finish in minutes.  Gated behind
	// an env var so the per-push `make check` stays fast.
	if os.Getenv("GATEWAY_SOAK") == "" {
		t.Skip("set GATEWAY_SOAK=1 to run the gateway soak (nightly CI)")
	}
	rep, err := RunGateway(20_000, 64, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SlabLeaked != 0 || rep.ChannelsLiveEnd != 40_000 {
		t.Errorf("soak invariants: leaked=%d live=%d", rep.SlabLeaked, rep.ChannelsLiveEnd)
	}
}

// TestGraphCheckRows runs -check's graph rows three times in one process:
// each must hold its exact Ejects and sink counts and its invocation
// bound every time, not on a lucky run.
func TestGraphCheckRows(t *testing.T) {
	for run := 0; run < 3; run++ {
		for _, v := range VerifyGraph(quickParams) {
			t.Errorf("run %d: %s", run, v)
		}
	}
}
