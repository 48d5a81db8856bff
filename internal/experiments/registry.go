package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Spec is one runnable experiment in the registry.
type Spec struct {
	ID    string
	Short string
	Run   func(p Params) (Table, error)
}

// Params scales the experiments: Quick shrinks the workloads for CI,
// Full uses the defaults reported in EXPERIMENTS.md.
type Params struct {
	Ns    []int
	Items int
}

// DefaultParams returns the standard workload sizes.
func DefaultParams(quick bool) Params {
	if quick {
		return Params{Ns: []int{1, 2, 4}, Items: 300}
	}
	return Params{Ns: SweepN, Items: SweepItems}
}

// Registry lists every experiment, in DESIGN.md order.
func Registry() []Spec {
	return []Spec{
		{"e1", "Figure 1: Unix pipeline syscall counts", func(p Params) (Table, error) {
			return E1UnixPipeline(p.Ns, p.Items)
		}},
		{"e2", "Figure 2: read-only pipeline invocation counts", func(p Params) (Table, error) {
			return E2ReadOnly(p.Ns, p.Items)
		}},
		{"e3", "§4 baseline: buffered pipeline invocation counts", func(p Params) (Table, error) {
			return E3Buffered(p.Ns, p.Items)
		}},
		{"e4", "§5 dual: write-only pipeline invocation counts", func(p Params) (Table, error) {
			return E4WriteOnly(p.Ns, p.Items)
		}},
		{"summary", "headline read-only vs buffered ratios", func(p Params) (Table, error) {
			return SummaryRatio(p.Ns, p.Items)
		}},
		{"e5", "§4 laziness and anticipation bounds", func(p Params) (Table, error) {
			return E5Laziness(p.Items)
		}},
		{"e6", "Figure 3: write-only report streams", func(p Params) (Table, error) {
			return E6Figure3(p.Items)
		}},
		{"e7", "Figure 4: read-only report channels", func(p Params) (Table, error) {
			return E7Figure4(p.Items)
		}},
		{"e8", "§5 capability channel identifiers", func(p Params) (Table, error) {
			return E8Capability(p.Items)
		}},
		{"e9", "§4 cost hierarchy", func(p Params) (Table, error) {
			return E9CostHierarchy()
		}},
		{"e9b", "§4 payoff under cross-node latency", func(p Params) (Table, error) {
			n := 4
			items := p.Items / 4
			if items < 50 {
				items = 50
			}
			return E9Payoff(n, items)
		}},
		{"e10", "§5 fan-in/fan-out matrix", func(p Params) (Table, error) {
			return E10Fan([]int{2, 4, 8}, p.Items/4+25)
		}},
		{"e11", "parallel engine: shard and window scaling", func(p Params) (Table, error) {
			items := p.Items / 2
			if items < 100 {
				items = 100
			}
			return ParallelTable(items)
		}},
		{"e12", "stage fusion: fused vs unfused grid", func(p Params) (Table, error) {
			items := p.Items / 2
			if items < 100 {
				items = 100
			}
			return FusionTable(items)
		}},
		{"e13", "ingress gateway: million-channel control plane", func(p Params) (Table, error) {
			return E13Gateway(p)
		}},
		{"e14", "real-wire transput: netsim vs UDS vs TCP", func(p Params) (Table, error) {
			return E14Transport(p)
		}},
		{"a1", "ablation: Transfer batch size", func(p Params) (Table, error) {
			return A1BatchSweep(4, p.Items)
		}},
		{"a2", "ablation: prefetch depth", func(p Params) (Table, error) {
			return A2PrefetchSweep(4, p.Items)
		}},
		{"a3", "ablation: byte vs gob record streams", func(p Params) (Table, error) {
			return A3RecordStream(p.Items)
		}},
		{"a4", "ablation: caller-runs vs mailbox dispatch", func(p Params) (Table, error) {
			return A4DispatchPaths(10 * p.Items)
		}},
		{"a5", "ablation: item payload size", func(p Params) (Table, error) {
			return A5PayloadSweep(4)
		}},
	}
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	specs := Registry()
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return ids
}

// Run executes the selected experiments (nil/empty = all) and writes
// their tables to w.
func Run(ids []string, p Params, w io.Writer) error {
	specs := Registry()
	want := make(map[string]bool)
	for _, id := range ids {
		want[strings.ToLower(id)] = true
	}
	known := make(map[string]bool, len(specs))
	for _, s := range specs {
		known[s.ID] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("experiments: unknown ids %v (have %v)", unknown, IDs())
	}
	for _, s := range specs {
		if len(want) > 0 && !want[s.ID] {
			continue
		}
		table, err := s.Run(p)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", s.ID, err)
		}
		if _, err := fmt.Fprintln(w, table.Format()); err != nil {
			return err
		}
	}
	return nil
}
