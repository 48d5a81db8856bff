package analysis

import "testing"

// The v3 liveness fixtures: each analyzer must demonstrably fire on
// its negative cases (mustFind) while the positive cases in the same
// fixture stay silent (checkWants inside runFixture).

func TestGoroleakFixture(t *testing.T) {
	diags := runFixture(t, Goroleak, "gorofix")
	mustFind(t, diags, "never terminates")
	mustFind(t, diags, "never closed")
	mustFind(t, diags, "cannot prove termination")
}

func TestWaitCycleFixture(t *testing.T) {
	diags := runFixture(t, WaitCycle, "waitfix")
	mustFind(t, diags, "calls cond.Wait outside a predicate loop")
	mustFind(t, diags, "no looping caller")
	mustFind(t, diags, "never signaled")
	mustFind(t, diags, "without holding its associated mutex")
	mustFind(t, diags, "possible wait cycle")

	diags = runFixture(t, WaitCycle, "lockfix")
	mustFind(t, diags, "lock order cycle between lock lockfix.mu.* <-> lock lockfix.mu")
	mustFind(t, diags, "<-> .*<-> ") // the three-class ring
}

// protoBounds shrinks the model for fixture runs; the broken fixtures
// abort exploration at the first violation anyway, and the clean one
// must stay fast.
func protoBounds(t *testing.T, window, writers int) {
	t.Helper()
	w, p := ProtoWindow, ProtoWriters
	ProtoWindow, ProtoWriters = window, writers
	t.Cleanup(func() { ProtoWindow, ProtoWriters = w, p })
}

func TestProtoModelFixtureClean(t *testing.T) {
	protoBounds(t, 2, 1)
	diags := runFixture(t, ProtoModel, "protofix")
	if len(diags) != 0 {
		t.Errorf("correct miniature protocol produced %d findings", len(diags))
	}
}

func TestProtoModelFixtureDroppedGrant(t *testing.T) {
	protoBounds(t, 2, 1)
	diags := runFixture(t, ProtoModel, "protobad1")
	mustFind(t, diags, "lacks the 1\\+credits/batch floor")
	mustFind(t, diags, "I3 violated")
}

func TestProtoModelFixtureOffByOne(t *testing.T) {
	protoBounds(t, 2, 1)
	diags := runFixture(t, ProtoModel, "protobad2")
	mustFind(t, diags, "admits active == limit")
	mustFind(t, diags, "I2 violated")
}

func TestProtoModelFixtureMissingAbortWake(t *testing.T) {
	protoBounds(t, 2, 1)
	diags := runFixture(t, ProtoModel, "protobad3")
	mustFind(t, diags, "does not re-check abortErr")
	mustFind(t, diags, "I3 violated")
}

func TestProtoModelFixtureDroppedClamp(t *testing.T) {
	protoBounds(t, 2, 1)
	diags := runFixture(t, ProtoModel, "protobad4")
	mustFind(t, diags, "lacks the window clamp")
	mustFind(t, diags, "I2 violated")
}

func TestProtoModelFixtureSecondGate(t *testing.T) {
	protoBounds(t, 2, 1)
	diags := runFixture(t, ProtoModel, "protobad5")
	mustFind(t, diags, "window gate stated 2 times")
}

func TestStaleSuppression(t *testing.T) {
	diags := runFixture(t, Goroleak, "staleok")
	mustFind(t, diags, "stale suppression")
	for _, d := range diags {
		if d.Analyzer == "goroleak" {
			t.Errorf("live suppression failed to suppress: %s", d)
		}
	}
}
