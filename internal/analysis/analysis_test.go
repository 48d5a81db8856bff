package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// Each fixture contains both passing cases (functions that must stay
// silent) and failing cases (// want comments).  mustFind doubles as
// the acceptance check that every analyzer demonstrably fires on its
// negative fixture.

func TestSlabOwnFixture(t *testing.T) {
	diags := runFixture(t, SlabOwn, "slabfix")
	mustFind(t, diags, "may escape without Release")
}

func TestPoolHygieneFixture(t *testing.T) {
	diags := runFixture(t, PoolHygiene, "poolfix")
	mustFind(t, diags, "without being released back to its pool")
	mustFind(t, diags, "after it was released")
}

func TestDisciplineFixture(t *testing.T) {
	diags := runFixture(t, Discipline, "discfix")
	mustFind(t, diags, "uses push-side symbol")
	mustFind(t, diags, "reaches push-side symbol")
	mustFind(t, diags, "uses pull-side symbol")
	mustFind(t, diags, "reaches pull-side symbol")
}

func TestFusableFixture(t *testing.T) {
	diags := runFixture(t, Fusable, "fusable")
	mustFind(t, diags, "uses port symbol")
	mustFind(t, diags, "reaches port symbol")
	mustFind(t, diags, "uses invocation symbol")
	mustFind(t, diags, "reaches invocation symbol")
}

func TestMetricsTableFixture(t *testing.T) {
	diags := runFixture(t, MetricsTable, "metricsfix")
	mustFind(t, diags, "missing from fieldTable")
	mustFind(t, diags, "Set field Skipped is missing") // promoted from an embedded ledger
	mustFind(t, diags, "duplicate metric name")
	mustFind(t, diags, "hoist the Inc handle")
	mustFind(t, diags, "hoist the AddAt handle")
	mustFind(t, diags, "no such metric")
}

func TestLockOrderFixture(t *testing.T) {
	diags := runFixture(t, LockOrder, "lockfix")
	mustFind(t, diags, "lock order inversion")
}

func TestEpochGuardFixture(t *testing.T) {
	diags := runFixture(t, EpochGuard, "epochfix")
	mustFind(t, diags, "used before revalidating")
	mustFind(t, diags, "compared outside")
}

func TestAtomicMixFixture(t *testing.T) {
	diags := runFixture(t, AtomicMix, "atomicfix")
	mustFind(t, diags, "plain access to hits")
	mustFind(t, diags, "atomic value flags")
}

func TestConnLifeFixture(t *testing.T) {
	diags := runFixture(t, ConnLife, "connfix")
	mustFind(t, diags, "may escape without Close")
}

func TestSendOwnFixture(t *testing.T) {
	diags := runFixture(t, SendOwn, "sendfix")
	mustFind(t, diags, "touched after it was handed")
	mustFind(t, diags, "may drop its frames")
	mustFind(t, diags, "no drain loop in this package")
}

// TestModuleIsClean runs the full suite over the real module — the
// same gate `make vet-custom` enforces in CI.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loader.Load()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestLoaderIndexesModule sanity-checks package discovery.
func TestLoaderIndexesModule(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := loader.ModulePath(); got != "asymstream" {
		t.Fatalf("module path = %q, want asymstream", got)
	}
	paths := loader.ModulePackages()
	wantSome := []string{
		"asymstream/internal/wire",
		"asymstream/internal/transput",
		"asymstream/internal/analysis",
		"asymstream/cmd/transput-vet",
	}
	for _, w := range wantSome {
		found := false
		for _, p := range paths {
			if p == w {
				found = true
			}
		}
		if !found {
			t.Errorf("package %s not indexed (got %d packages)", w, len(paths))
		}
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into the module index: %s", p)
		}
	}
}

// TestAnalyzerRegistry keeps the suite's shape stable.
func TestAnalyzerRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{
		"slabown", "discipline", "fusable", "poolhygiene", "metricstable", "lockorder",
		"epochguard", "atomicmix", "connlife", "sendown",
		"goroleak", "waitcycle", "protomodel",
	} {
		if !names[want] {
			t.Errorf("missing analyzer %s", want)
		}
	}
}
