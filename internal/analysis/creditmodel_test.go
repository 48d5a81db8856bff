package analysis

import "testing"

// TestCreditModelMutants: the seeded-mutant gate.  Each deliberately
// broken protocol must be re-detected by the named invariant — a
// checker that cannot catch its own mutants proves nothing with a
// clean run.
func TestCreditModelMutants(t *testing.T) {
	cases := []struct {
		mutant creditMutant
		inv    string
	}{
		{MutantDropCreditGrant, "I3"},   // limit hits 0, nothing in flight: stall
		{MutantMissingAbortDrain, "I4"}, // buffered items stranded after abort
		{MutantWindowOffByOne, "I2"},    // active exceeds limit
	}
	for _, c := range cases {
		t.Run(c.mutant.String(), func(t *testing.T) {
			res := exploreCreditModel(defaultModelParams(4, 2).apply(c.mutant), 0)
			found := false
			for _, v := range res.Violations {
				if v.Invariant == c.inv {
					found = true
					if len(v.Trace) == 0 {
						t.Errorf("%s violation has no witness trace", c.inv)
					}
					t.Logf("%s: %s\ntrace (%d steps):\n  %s", v.Invariant, v.Desc, len(v.Trace), traceLines(v.Trace))
				}
			}
			if !found {
				t.Errorf("mutant %s not detected: expected a %s violation, got %v",
					c.mutant, c.inv, res.Violations)
			}
		})
	}
}

// TestCreditModelNoAbort: the abort-free slice of the space must also
// be clean (the common case: streams that complete normally).
func TestCreditModelNoAbort(t *testing.T) {
	p := defaultModelParams(3, 2)
	p.WithAbort = false
	res := exploreCreditModel(p, 0)
	if len(res.Violations) != 0 || res.Capped {
		t.Fatalf("abort-free exploration not clean: capped=%v violations=%v", res.Capped, res.Violations)
	}
}

func traceLines(tr []string) string {
	out := ""
	for i, s := range tr {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
