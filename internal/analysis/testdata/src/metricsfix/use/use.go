// Package use exercises the metricstable rules that apply at the
// point of use: hot-path mutations must go through hoisted handles,
// and Snapshot.Get names must exist in the table.
package use

import "fixture/metricsfix/metricslike"

type node struct{ met *metricslike.Set }

// Metrics re-fetches the set — fine in itself.
func (n *node) Metrics() *metricslike.Set { return n.met }

// hotLoop increments through a call chain on every iteration.
func hotLoop(n *node, iters int) {
	for i := 0; i < iters; i++ {
		n.Metrics().Ops.Inc() // want "hoist the Inc handle"
	}
	n.Metrics().PeakHW.Observe(int64(iters)) // want "hoist the Observe handle"
	n.Metrics().Live.Dec()                   // want "hoist the Dec handle"
	n.Metrics().IdleBytes.Sub(64)            // want "hoist the Sub handle"
	n.Metrics().Hops.AddAt(0, 1)             // want "hoist the AddAt handle"
}

// hoisted is clean: the handle is fetched once, outside the loop.
func hoisted(n *node, iters int) {
	ops := &n.met.Ops
	for i := 0; i < iters; i++ {
		ops.Inc()
	}
	n.met.Dropped.Add(2) // selector chain without calls: fine
	live := &n.met.Live
	live.Inc()
	live.Dec()             // hoisted gauge handle: fine
	n.met.Hops.AddAt(1, 1) // promoted ledger field, no call in the chain: fine
}

// coldRead is clean: Value/Snapshot reads are exempt from the rule.
func coldRead(n *node) int64 {
	return n.Metrics().Ops.Value()
}

// lookups checks Get names against the table.
func lookups(s metricslike.Snapshot) int64 {
	total := s.Get("ops") + s.Get("peak_hw")
	total += s.Get("opps") // want "no such metric in fieldTable"
	return total
}
