package core

import (
	"testing"
	"unsafe"

	"asymstream/internal/uid"
)

// TestChannelRecordSize pins the idle record to the 192-byte size
// class: a gateway holds 10⁵–10⁶ of them, so a field that pushes the
// record into the next class is a heap regression, not a detail.  The
// size stays a multiple of 64 so that records, which the allocator
// packs side by side in their class, each start on a cache line and
// never share one: a record's lock word is hot under lookup validation.
func TestChannelRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Channel{}); n > 192 || n%64 != 0 {
		t.Fatalf("unsafe.Sizeof(channel{}) = %d B, want <= 192 and a multiple of 64", n)
	}
}

func TestSeqGateLanesAndSpill(t *testing.T) {
	var g seqGate
	writers := make([]uid.UID, seqGateLanes+3)
	for i := range writers {
		writers[i] = uid.New()
	}
	// Unknown writers owe offset 0, matching the old map default.
	for _, w := range writers {
		if got := g.turn(w); got != 0 {
			t.Fatalf("turn(%v) = %d before any advance", w, got)
		}
	}
	// Advance all of them past the lane capacity; the excess spills.
	for i, w := range writers {
		g.advance(w, int64(i+1))
	}
	if g.spill == nil {
		t.Fatal("fan-in wider than the lanes should spill")
	}
	for i, w := range writers {
		if got := g.turn(w); got != int64(i+1) {
			t.Fatalf("turn(writer %d) = %d, want %d", i, got, i+1)
		}
	}
	// Dropping a lane writer frees the lane for a spilled... any writer.
	g.drop(writers[0])
	if got := g.turn(writers[0]); got != 0 {
		t.Fatalf("dropped writer still owes %d", got)
	}
	w := uid.New()
	g.advance(w, 9)
	if got := g.turn(w); got != 9 {
		t.Fatalf("freed lane not reusable: turn = %d, want 9", got)
	}
	g.reset()
	for _, w := range writers {
		if g.turn(w) != 0 {
			t.Fatal("reset did not clear the gate")
		}
	}
	if g.spill != nil {
		t.Fatal("reset did not clear the spill map")
	}
}

func TestSeqGateLaneStaysInline(t *testing.T) {
	var g seqGate
	ws := []uid.UID{uid.New(), uid.New()}
	if n := testing.AllocsPerRun(200, func() {
		for i, w := range ws {
			_ = g.turn(w)
			g.advance(w, int64(i))
		}
	}); n != 0 {
		t.Errorf("lane-resident seqGate allocates %.1f/op; want 0", n)
	}
}
