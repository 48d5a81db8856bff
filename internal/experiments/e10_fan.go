package experiments

import (
	"fmt"
	"sync/atomic"

	"asymstream/internal/filters"
	"asymstream/internal/transput"
)

// E10Fan quantifies §5's asymmetry table:
//
//	"As we have described it so far, 'read only' transput allows
//	arbitrary fan-in but no fan-out.  The dual situation exists with
//	'write only' transput. ... There is arbitrary fan-out, but no
//	fan-in.  Conventional transput allows arbitrary fan-in and
//	fan-out because both reads and writes are active."
//
// and the channel-identifier remedy: with Read qualified by a channel
// id, read-only transput regains fan-out (Figure 4's mechanism).
//
// The experiment builds two graphs at fan degree k — k sources into one
// sink, one source out to k sinks — under both asymmetric disciplines,
// at the paper's batch 1 with fusion off:
//
//	read-only fan-in   : the sink holds k InPorts (k source UIDs)
//	write-only fan-out : the source holds k Pushers (k sink UIDs)
//	read-only fan-out  : the source declares k channels, one a sink (Figure 4's mechanism)
//	write-only fan-in  : the sink declares one channel with k writers, which merge
//
// Each topology moves k·items data items with k data invocations per
// produced datum, plus at most one End exchange an edge — the
// disciplines are symmetric once channels exist; what differs (and the
// table notes) is *identity*: only the side holding UIDs or channel ids
// can tell its correspondents apart.
func E10Fan(ks []int, items int) (Table, error) {
	t := Table{
		ID:      "E10",
		Title:   "§5 fan-in/fan-out — all four directions at fan degree k",
		Columns: []string{"topology", "k", "items moved", "ejects", "data inv", "distinguishable?"},
		Notes: []string{
			"read-only fan-in and write-only fan-out are native; the reverse directions need channel ids (read) or merge anonymously (write)",
		},
	}
	for _, k := range ks {
		for _, topo := range fanTopologies {
			got, res, err := runFan(topo, k, items)
			if err != nil {
				return t, fmt.Errorf("E10 %s k=%d: %w", topo.name, k, err)
			}
			var moved int64
			for _, n := range got {
				moved += n
			}
			t.Rows = append(t.Rows, []string{
				topo.name,
				fmt.Sprintf("%d", k),
				fmt.Sprintf("%d", moved),
				fmt.Sprintf("%d", res.Ejects),
				fmt.Sprintf("%d", res.DataInv),
				topo.distinct,
			})
		}
	}
	return t, nil
}

// fanTopology is one of §5's four fan directions: a fan-in or fan-out
// graph under one discipline.
type fanTopology struct {
	name     string
	d        transput.Discipline
	in       bool // k sources into one sink; else one source out to k sinks
	distinct string
}

var fanTopologies = []fanTopology{
	{"ro fan-in", transput.ReadOnly, true, "yes (k UIDs held by the reader)"},
	{"wo fan-out", transput.WriteOnly, false, "yes (k UIDs held by the writer)"},
	{"ro fan-out (channels)", transput.ReadOnly, false, "yes (k channel ids)"},
	{"wo fan-in (anonymous)", transput.WriteOnly, true, "no (writers merge)"},
}

// runFan runs one topology at fan degree k, each source teeing items
// lines to its outputs, and returns how many items each sink received.
func runFan(topo fanTopology, k, items int) ([]int64, FigureResult, error) {
	sinks := k
	if topo.in {
		sinks = 1
	}
	counts := make([]atomic.Int64, sinks)
	// Node 0 is the hub, nodes 1..k the spokes.
	hub := transput.Filter{Name: "hub", Body: fed(items, filters.Tee())}
	if topo.in {
		hub.Body = countInto(&counts[0])
	}
	g := transput.Graph{Nodes: []transput.Filter{hub}}
	for i := 1; i <= k; i++ {
		spoke, e := transput.Filter{Name: fmt.Sprintf("spoke%d", i), Body: fed(items, filters.Tee())}, transput.Edge{From: i, To: 0}
		if !topo.in {
			spoke.Body, e = countInto(&counts[i-1]), transput.Edge{From: 0, To: i}
		}
		g.Nodes, g.Edges = append(g.Nodes, spoke), append(g.Edges, e)
	}
	res, err := runGraph(topo.d, g, transput.Options{})
	got := make([]int64, sinks)
	for i := range counts {
		got[i] = counts[i].Load()
	}
	return got, res, err
}
