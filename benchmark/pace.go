package main

import "time"

// clock is the monotonic time the open-loop scheduler waits on, in
// nanoseconds; the tests drive it with a fake.
type clock interface{ now() int64 }

type monoClock struct{ base time.Time }

func (c monoClock) now() int64 { return int64(time.Since(c.base)) }

// maxLateP50Us is the invalid-run rule: a paced repetition whose
// generator ran later than this at the median did not offer the
// schedule it claims, and is run again.
const maxLateP50Us = 20

// pacer is the open-loop schedule: item i is due at start + i/rate
// whatever happened to the items before it, and is timed from then, so
// a stall charges its wait to every item it delayed.  wait busy-waits
// on the clock: yielding to the Go scheduler or sleeping made the
// generator itself hundreds of µs late (README, "Pacing").
type pacer struct {
	clk   clock
	rate  float64 // items per second
	start int64
	due   []int64 // due[i], stamped when item i is released
	late  []int64 // how long after due[i] item i was released
}

func newPacer(clk clock, rate float64, items int) *pacer {
	return &pacer{clk: clk, rate: rate, due: make([]int64, items), late: make([]int64, items)}
}

// begin fixes the schedule's origin.
func (p *pacer) begin() { p.start = p.clk.now() }

// wait returns when item i is due, having stamped its due time.
func (p *pacer) wait(i int) {
	due := p.start + int64(float64(i)*1e9/p.rate)
	p.due[i] = due
	for {
		if now := p.clk.now(); now >= due {
			p.late[i] = now - due
			return
		}
	}
}

// lateness reports the generator's p50 and p99 lateness in µs over the
// items released so far.
func (p *pacer) lateness(released int) (p50, p99 float64) {
	xs := make([]float64, released)
	for i := range xs {
		xs[i] = float64(p.late[i]) / 1e3
	}
	return percentile(xs, 0.5), percentile(xs, 0.99)
}

// valid applies the invalid-run rule.
func (p *pacer) valid(released int) bool {
	p50, _ := p.lateness(released)
	return p50 <= maxLateP50Us
}
