package transput

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"testing"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// updateGolden rewrites testdata/pipeline_inventory.golden from the
// running tree.  The file pins the builder's wiring as observed at the
// commit before the three build* mirrors became one walk; regenerate it
// only for a change that means to move one of the pinned values.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/pipeline_inventory.golden")

const goldenFile = "testdata/pipeline_inventory.golden"

// tagFilter appends tag to every item: per-item (so sharding is exact)
// and order-sensitive across filters (so the digest sees a swapped or
// dropped stage).
func tagFilter(tag byte) Body {
	return func(ins []ItemReader, outs []ItemWriter) error {
		for {
			item, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := outs[0].Put(append(item, tag)); err != nil {
				return err
			}
		}
	}
}

// goldenPlacements: nil places everything on node 0; "alt" alternates
// nodes element by element (no two neighbours share one, so nothing
// fuses); "pairs" alternates two filters at a time, so fusion groups
// form on both nodes and the fused chain's filter indices shift.
var goldenPlacements = []struct {
	name string
	fn   func(Role, int) netsim.NodeID
}{
	{"node0", nil},
	{"alt", func(role Role, i int) netsim.NodeID {
		switch role {
		case RoleFilter:
			return netsim.NodeID((i + 1) % 2)
		case RoleBuffer:
			return netsim.NodeID(i % 2)
		case RoleSink:
			return 1
		}
		return 0
	}},
	{"pairs", func(role Role, i int) netsim.NodeID {
		switch role {
		case RoleFilter:
			return netsim.NodeID(i / 2 % 2)
		case RoleBuffer:
			return netsim.NodeID(i % 2)
		case RoleSink:
			return 1
		}
		return 0
	}},
}

// starterName names a starter by its stage's diagnostic name; the
// sequence is the construction order Start and Wait depend on.
func starterName(s interface{ Start() }) string {
	switch st := s.(type) {
	case *Stage:
		return st.name
	}
	return fmt.Sprintf("%T", s)
}

const goldenItems = 40

// inventoryLine builds one cell's pipeline, runs it, and renders what
// the golden file pins exactly.  Transfer invocations are returned apart
// with the pipeline's count of pulled lanes: a consumer that asks again
// before its producer has closed pays one end-of-stream Transfer on that
// lane, so the count is the floor (every item crosses every link once)
// plus at most one per lane, run to run.
func inventoryLine(t *testing.T, d Discipline, shape []int, opt Options) (line string, transfers, lanes int64) {
	t.Helper()
	k := kernel.New(kernel.Config{Net: netsim.Config{Nodes: 2}})
	defer k.Shutdown()
	fs := make([]Filter, len(shape))
	for i, s := range shape {
		fs[i] = Filter{Name: fmt.Sprintf("f%d", i), Body: tagFilter(byte('a' + i)), Shards: s}
	}
	var got [][]byte
	before := k.Metrics().Snapshot()
	p, err := BuildPipeline(k, d, numbersSource(goldenItems), fs, collectSink(&got), opt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	created := kdiff(k, before).Get("ejects_created")

	var flat []uid.UID
	for _, row := range p.ShardUIDs {
		flat = append(flat, row...)
	}
	if fmt.Sprint(flat) != fmt.Sprint(p.FilterUIDs) {
		t.Errorf("FilterUIDs %v is not ShardUIDs flattened in filter order %v", p.FilterUIDs, flat)
	}
	nodes := func(ids ...uid.UID) string {
		var sb strings.Builder
		for _, id := range ids {
			n, err := k.NodeOf(id)
			if err != nil {
				t.Fatalf("NodeOf(%v): %v", id, err)
			}
			fmt.Fprintf(&sb, "%d", n)
		}
		return sb.String()
	}
	starters := make([]string, len(p.starters))
	for i, s := range p.starters {
		starters[i] = starterName(s)
	}
	line = fmt.Sprintf("ejects=%d filters=%d counts=%v buffers=%d nodes=%s/%s/%s/%s logical=%d groups=%d fused=%d created=%d stageErr=%d start=%s",
		p.Ejects(), len(p.FilterUIDs), p.ShardCounts, len(p.BufferUIDs),
		nodes(p.SourceUID), nodes(p.FilterUIDs...), nodes(p.SinkUID), nodes(p.BufferUIDs...),
		p.LogicalStages, p.FusionGroups, p.FusedStages, created, len(p.stageErr), strings.Join(starters, ","))

	if err := runWithTimeout(t, p); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Run returns when the sink is done; the stages upstream may still be
	// ending their streams, and the counters are read only once they have.
	for _, stageErr := range p.stageErr {
		_ = stageErr()
	}
	h := fnv.New64a()
	for _, item := range got {
		h.Write(item)
		h.Write([]byte{0})
	}
	diff := kdiff(k, before)
	transfers = diff.Get("transfer_invocations")
	line += fmt.Sprintf(" items=%d digest=%016x deliver=%d control=%d",
		len(got), h.Sum64(), diff.Get("deliver_invocations"),
		diff.Get("invocations")-transfers-diff.Get("deliver_invocations"))
	if total := diff.Get("ejects_created"); total != created {
		t.Errorf("running the pipeline created %d more Ejects", total-created)
	}
	if d != WriteOnly {
		prev := 1
		for _, c := range append(p.ShardCounts, 1) {
			lanes += int64(max(prev, c))
			prev = c
		}
	}
	p.Destroy()
	return line, transfers, lanes
}

// TestPipelineInventoryGolden pins what BuildPipeline wires — the Eject
// inventory, where each Eject lives, the construction order of the
// starters, the fusion accounting — and what running it costs in
// invocations, cell by cell over discipline × filter shape × fusion ×
// placement × LazyStart × CapabilityMode, against values written down
// from the three-builder tree.
func TestPipelineInventoryGolden(t *testing.T) {
	want := map[string][2]string{} // key -> exact line, transfer floor
	if !*updateGolden {
		f, err := os.Open(goldenFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			parts := strings.Split(sc.Text(), " | ")
			if len(parts) != 3 {
				t.Fatalf("malformed golden line %q", sc.Text())
			}
			want[parts[0]] = [2]string{parts[1], parts[2]}
		}
	}
	var out strings.Builder
	cells := 0
	for _, d := range disciplines {
		for _, shape := range [][]int{{1}, {3}, {1, 3, 1}, {3, 3}, {1, 1, 1, 1}} {
			for _, fusion := range []FusionMode{FusionOff, FusionOn} {
				for _, pl := range goldenPlacements {
					for _, lazy := range []bool{false, true} {
						for _, capMode := range []bool{false, true} {
							key := fmt.Sprintf("%v %v fusion=%v place=%s lazy=%v cap=%v",
								d, shape, fusion, pl.name, lazy, capMode)
							opt := Options{Fusion: fusion, Placement: pl.fn, LazyStart: lazy, CapabilityMode: capMode}
							cells++
							t.Run(key, func(t *testing.T) {
								line, transfers, lanes := inventoryLine(t, d, shape, opt)
								if *updateGolden {
									// The floor is whole items over whole links; a
									// run that paid an end-of-stream Transfer is not it.
									for transfers%goldenItems != 0 {
										_, transfers, _ = inventoryLine(t, d, shape, opt)
									}
									fmt.Fprintf(&out, "%s | %s | transfer>=%d\n", key, line, transfers)
									return
								}
								if line != want[key][0] {
									t.Errorf("\n  got  %s\n  want %s", line, want[key][0])
								}
								var floor int64
								if _, err := fmt.Sscanf(want[key][1], "transfer>=%d", &floor); err != nil {
									t.Fatalf("golden transfer floor %q: %v", want[key][1], err)
								}
								if transfers < floor || transfers > floor+lanes {
									t.Errorf("%d Transfer invocations, want %d plus at most one per lane (%d)", transfers, floor, lanes)
								}
							})
						}
					}
				}
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(want) != cells {
		t.Errorf("golden file has %d cells, the table %d", len(want), cells)
	}
}
