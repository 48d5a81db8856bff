// Package metricslike is a miniature of internal/metrics, shaped so
// the metricstable analyzer recognizes it: a Set struct of counters
// plus a package-level fieldTable.  Four deliberate table bugs live
// here: the Dropped counter, the IdleBytes gauge and the Skipped
// counter of the embedded ledger are missing from the table, and "ops"
// is declared twice.
package metricslike

import "sync/atomic"

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a bidirectional level meter.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Sub subtracts n.
func (g *Gauge) Sub(n int64) { g.v.Add(-n) }

// Value reads the level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HighWater tracks a maximum.
type HighWater struct{ v atomic.Int64 }

// Observe raises the high-water mark.
func (h *HighWater) Observe(n int64) {
	for {
		cur := h.v.Load()
		if n <= cur || h.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value reads the mark.
func (h *HighWater) Value() int64 { return h.v.Load() }

// stripedCounter is a counter spread over several words.
type stripedCounter struct{ v [4]atomic.Int64 }

// AddAt adds n on one stripe.
func (c *stripedCounter) AddAt(st uint8, n int64) { c.v[st%4].Add(n) }

// Value sums the stripes.
func (c *stripedCounter) Value() int64 {
	var sum int64
	for i := range c.v {
		sum += c.v[i].Load()
	}
	return sum
}

// hopLedger groups the counters one hot path ticks together.  Set
// embeds it, so its fields are Set's by promotion.
type hopLedger struct {
	Hops    stripedCounter
	Skipped stripedCounter
}

// Set is the package's metric surface.
type Set struct {
	hopLedger
	Ops       Counter
	Dropped   Counter
	Live      Gauge
	IdleBytes Gauge
	PeakHW    HighWater
}

var fieldTable = []struct { // want "Set field Dropped is missing from fieldTable" "Set field IdleBytes is missing from fieldTable" "Set field Skipped is missing from fieldTable"
	name string
	get  func(*Set) int64
}{
	{"ops", func(s *Set) int64 { return s.Ops.Value() }},
	{"ops", func(s *Set) int64 { return s.Ops.Value() }}, // want "fieldTable declares duplicate metric name .ops." "fieldTable references Set field Ops more than once"
	{"live", func(s *Set) int64 { return s.Live.Value() }},
	{"peak_hw", func(s *Set) int64 { return s.PeakHW.Value() }},
	{"hops", func(s *Set) int64 { return s.Hops.Value() }},
}

// Snapshot is a point-in-time copy.
type Snapshot struct{ Values map[string]int64 }

// Snapshot captures every tabled metric.
func (s *Set) Snapshot() Snapshot {
	snap := Snapshot{Values: make(map[string]int64, len(fieldTable))}
	for _, f := range fieldTable {
		snap.Values[f.name] = f.get(s)
	}
	return snap
}

// Get reads one metric by table name.
func (s Snapshot) Get(name string) int64 { return s.Values[name] }
