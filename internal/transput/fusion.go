// Stage fusion — the pipeline builder's answer to §6's cost model.
// Invocation is dear *because* it is location-independent; between two
// stages that share a node the port hop (frame codec, windowed link,
// mailbox bounce) buys nothing.  Fusion partitions the graph's elements
// into runs of linked co-located stages at Build time and compiles each
// run into a single element — one Eject — whose body is the direct
// composition of the member bodies: items flow from member to member
// through an in-stack coroutine edge, with no frame, no port and no
// invocation.  The pass takes the graph and returns the graph; the walk
// in pipeline.go wires a group exactly as it wires any element: an
// ordinary Eject on the kernel's ordinary worker pool.
//
// Boundaries stay real.  A shard split (an element of several shards),
// a fan node (more than one edge on a side), an explicit Filter.NoFuse,
// a cross-node edge, and every
// buffered-discipline PassiveBuffer remain genuine windowed links —
// fusion only elides hops that are provably unobservable (cf. Palamidessi's encodings between the
// synchronous and asynchronous π-calculi: semantics-preserving exactly
// when no observable choice depends on the intermediate link).
//
// The fused edge itself (fuse2, ComposeBodies) lives in internal/itemio,
// which imports neither the kernel nor a face, so nothing reachable from
// it can touch a port or an invocation: it is pure function composition
// (layout_test.go checks the imports).
package transput

import (
	"strings"

	"asymstream/internal/transput/internal/itemio"
)

// FusionMode selects whether BuildPipeline runs the fusion pass.
type FusionMode int

const (
	// FusionOff (the zero value) builds one Eject per stage, the
	// paper's exact accounting: n+2 Ejects and n+1 invocations per
	// datum in the asymmetric disciplines.
	FusionOff FusionMode = iota
	// FusionOn fuses adjacent co-located sequential stages into single
	// Ejects.  Counts drop below the paper's figures; the elision is
	// recorded in the FusionGroups/FusedStages metrics.
	FusionOn
)

// String names the mode for logs and benchmark labels.
func (m FusionMode) String() string {
	if m == FusionOn {
		return "on"
	}
	return "off"
}

// fuseGraph is the fusion pass: it takes the graph the walk is about to
// wire and returns it with every maximal run of linked, co-located,
// fusion-eligible elements collapsed into one element whose body is the
// direct composition of the members', reporting how many groups it
// compiled and how many members they hold.  A filter is eligible when it
// is sequential (effective shard count 1) and not NoFuse.  In the
// read-only discipline the source is eligible too and folds into a leading
// group (the sink remains the separate pump that drives the pipeline); in
// the write-only discipline the sink folds into a trailing group (the
// source remains the driver).  A node with more than one edge on a side
// keeps its ports, and the buffered discipline refuses fusion outright:
// every one of its links is an explicit PassiveBuffer boundary.  Groups
// are numbered by their first member; edges inside a group go.
//
// With everything co-located the asymmetric pipelines collapse to two
// Ejects — driver plus fused chain — and one stream invocation per
// datum, against the paper's n+2 and n+1.
func fuseGraph(d Discipline, els []element, edges []Edge, mode FusionMode) ([]element, []Edge, int, int) {
	if mode != FusionOn || d == Buffered {
		return els, edges, 0, 0
	}
	in, out := adjacency(len(els), edges)
	eligible := func(i int) bool {
		if len(in[i]) > 1 || len(out[i]) > 1 {
			return false
		}
		switch els[i].role {
		case RoleSource:
			return d == ReadOnly
		case RoleSink:
			return d == WriteOnly
		}
		return els[i].shards == 1 && !els[i].noFuse
	}
	// next is the member that follows i in its run, or -1.
	next := func(i int) int {
		if !eligible(i) || len(out[i]) == 0 {
			return -1
		}
		if j := edges[out[i][0]].To; j != Outlet && eligible(j) && els[j].node == els[i].node {
			return j
		}
		return -1
	}
	inRun := make([]bool, len(els)) // i follows another member
	for i := range els {
		if j := next(i); j >= 0 {
			inRun[j] = true
		}
	}
	group := make([]int, len(els))
	var fused []element
	var groups, stages int
	for i := range els {
		if inRun[i] {
			continue
		}
		var run []element
		for m := i; m >= 0; m = next(m) {
			group[m] = len(fused)
			run = append(run, els[m])
		}
		if len(run) < 2 {
			// No neighbour to join: there is no hop to elide, so the element
			// stays an ordinary stage.
			fused = append(fused, run[0])
			continue
		}
		bodies := make([]Body, len(run))
		names := make([]string, len(run))
		for m, e := range run {
			bodies[m], names[m] = e.body, e.name
		}
		// The group is a filter unless it swallowed the source or the sink,
		// whose place in the graph (and name) it then takes.
		g := element{
			role: RoleFilter, name: strings.Join(names, "+"), body: itemio.ComposeBodies(bodies),
			shards: 1, node: run[0].node,
		}
		switch first, end := run[0], run[len(run)-1]; {
		case first.role == RoleSource:
			g.role, g.name = RoleSource, first.name
		case end.role == RoleSink:
			g.role, g.name = RoleSink, end.name
		}
		fused = append(fused, g)
		groups++
		stages += len(run)
	}
	var kept []Edge
	for _, e := range edges {
		if e.To == Outlet {
			kept = append(kept, Edge{group[e.From], Outlet})
		} else if group[e.From] != group[e.To] {
			kept = append(kept, Edge{group[e.From], group[e.To]})
		}
	}
	return fused, kept, groups, stages
}
