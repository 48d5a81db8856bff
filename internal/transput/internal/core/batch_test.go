package core

import (
	"testing"
	"time"

	"asymstream/internal/metrics"
)

// TestBatchControllerAIMD pins the governor's dynamics: additive growth
// to the cap while exchanges come back full and fast, multiplicative
// backoff with best re-anchoring on a latency spike, and no growth on
// short exchanges.
func TestBatchControllerAIMD(t *testing.T) {
	var set metrics.Set
	c, start := NewBatchController(1, 2, 8, &set.BatchSizeHighWater)
	if got := c.next(); got != 2 || start != 2 {
		t.Fatalf("initial size = %d, start = %d, want 2", got, start)
	}
	// Constant per-item latency, full batches: +1 per exchange to max.
	for i := 0; i < 20; i++ {
		sz := c.next()
		c.record(sz, sz, time.Duration(sz)*time.Millisecond)
	}
	if got := c.next(); got != 8 {
		t.Fatalf("grown size = %d, want 8 (the cap)", got)
	}
	// A 100x per-item latency spike halves the batch.
	c.record(8, 8, 800*time.Millisecond)
	if got := c.next(); got != 4 {
		t.Fatalf("post-spike size = %d, want 4", got)
	}
	// A short exchange (got < asked) never grows the batch.
	c.record(4, 1, time.Millisecond)
	if got := c.next(); got != 4 {
		t.Fatalf("post-short size = %d, want 4", got)
	}
	if hw := set.BatchSizeHighWater.Value(); hw != 8 {
		t.Fatalf("BatchSizeHighWater = %d, want 8", hw)
	}
}
