package main

import (
	"runtime"
	"syscall"
	"time"

	"asymstream/internal/metrics"
)

// cpuTime reads user+system CPU of the process (RUSAGE_SELF) or of
// the calling OS thread (RUSAGE_THREAD).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0 // cannot fail for these two constants
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter brackets the timed part of one repetition.  The MemStats reads
// stop the world, so they sit outside the two clock reads.
type meter struct {
	snaps func() metrics.Snapshot

	t0     time.Time
	cpu0   time.Duration
	ms0    runtime.MemStats
	before metrics.Snapshot
}

// measured is what a meter saw between start and stop.
type measured struct {
	elapsed  time.Duration
	cpu      time.Duration
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	counters metrics.Snapshot // what the run added
	levels   metrics.Snapshot // where it ended: high-water marks live here
}

// startMeter begins a measurement.  snaps reads the counters of every
// kernel the workload runs (summed when there are two).
func startMeter(snaps func() metrics.Snapshot) *meter {
	m := &meter{snaps: snaps}
	m.before = snaps()
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime(syscall.RUSAGE_SELF)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() measured {
	elapsed := time.Since(m.t0)
	cpu := cpuTime(syscall.RUSAGE_SELF) - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	after := m.snaps()
	return measured{
		elapsed:  elapsed,
		cpu:      cpu,
		mallocs:  ms.Mallocs - m.ms0.Mallocs,
		gcCycles: ms.NumGC - m.ms0.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs),
		counters: metrics.Diff(m.before, after),
		levels:   after,
	}
}

// fastShare places the figure a repetition reports among its slices'
// figures: a tenth of the way in from the better end, the fast decile.
const fastShare = 0.10

// slicer cuts a timed run into slices of a fixed item count, at the
// consumer: whoever feeds the oracle ticks it once an item, and every
// every-th tick closes a slice with its wall time and the process CPU
// it took.  A slice is some 50 ms of work: long next to the program's
// own rhythms (a collection cycle, a batch, a window), which it must
// average over, and short next to the host's.  What is left after the
// last whole slice is in no slice.
//
// A repetition reports the fast decile of its slices.  The reference
// host has two speeds, its own and a slower one while a neighbour
// shares the core, and the slower one holds for a tenth of a second to
// some seconds at a time and for anything between none and nine tenths
// of a run (README, "Slices"): a mean over the run, or the median
// slice, reads the mix of the two, which is the neighbour's.  The best
// slice would do, were there not the rare slice in which the Go
// scheduler keeps a whole pipeline on one P and the program runs half
// as fast again; the decile leaves a few of those above it.
type slicer struct {
	every int
	left  int
	t     time.Time
	c     time.Duration
	wall  []time.Duration
	cpu   []time.Duration
}

func newSlicer(every, items int) *slicer {
	n := items / every
	return &slicer{every: every, left: every, wall: make([]time.Duration, 0, n), cpu: make([]time.Duration, 0, n)}
}

// start opens the first slice; the repetition calls it beside
// startMeter, before the first item can arrive.
func (s *slicer) start() { s.t, s.c = time.Now(), cpuTime(syscall.RUSAGE_SELF) }

func (s *slicer) tick() {
	if s.left--; s.left > 0 {
		return
	}
	t, c := time.Now(), cpuTime(syscall.RUSAGE_SELF)
	s.wall, s.cpu = append(s.wall, t.Sub(s.t)), append(s.cpu, c-s.c)
	s.t, s.c, s.left = t, c, s.every
}

// rate is items per second on the fast decile of the slices.  It and
// cpuUs want at least one slice.
func (s *slicer) rate() float64 {
	rates := make([]float64, len(s.wall))
	for i, w := range s.wall {
		rates[i] = float64(s.every) / w.Seconds()
	}
	return percentile(rates, 1-fastShare)
}

// cpuUs is process CPU µs per item on the fast decile of the slices.
// other[i], where given, is CPU that is not the system's and comes off
// slice i: the paced generator's spinning.
func (s *slicer) cpuUs(other []time.Duration) float64 {
	us := make([]float64, len(s.cpu))
	for i, c := range s.cpu {
		if i < len(other) {
			c -= other[i]
		}
		us[i] = float64(c) / 1e3 / float64(s.every)
	}
	return percentile(us, fastShare)
}

// dataInvocations counts the stream protocol's own invocations in a
// snapshot: Transfers and Delivers, not control-plane traffic.
func dataInvocations(s metrics.Snapshot) int64 {
	return s.Get("transfer_invocations") + s.Get("deliver_invocations")
}

// liveHeap is HeapAlloc once the collector has settled.  Two cycles:
// the first moves sync.Pool contents to the victim cache, the second
// drops them, so pooled records the run left behind do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// settleGoroutines waits (briefly) for the goroutine count to come
// back down to base after a teardown — exits are asynchronous — and
// returns the count it ended on.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
