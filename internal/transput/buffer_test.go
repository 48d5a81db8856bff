package transput

import "testing"

// TestStalePassiveBuffer: a PassiveBuffer over a reference made stale by
// Retire and the record's reuse answers as an empty buffer, and its
// OnDeactivate leaves the stream the record serves next alone (core's
// TestStaleHandle covers the ports' handles).
func TestStalePassiveBuffer(t *testing.T) {
	old := NewOutPort(nil, OutPortConfig{})
	w := old.Declare("old", 0, 4)
	stale := &PassiveBuffer{ch: w.Ref()}
	if !old.Retire(w) {
		t.Fatal("Retire did not tear the channel down")
	}
	next := NewOutPort(nil, OutPortConfig{})
	var live *ChannelWriter
	for i := range 64 {
		if nw := next.Declare("next", ChannelNum(i), 4); nw.Ref().C == stale.ch.C {
			live = nw
			break
		}
	}
	if live == nil {
		t.Skip("the pool reissued none of 64 records")
	}
	if err := live.Put([]byte("live")); err != nil {
		t.Fatal(err)
	}
	if n := stale.Buffered(); n != 0 {
		t.Errorf("stale Buffered = %d, want 0", n)
	}
	stale.OnDeactivate()
	if n := next.Buffered(); n != 1 {
		t.Errorf("the successor holds %d items after a stale OnDeactivate, want 1", n)
	}
	if err := live.Put([]byte("more")); err != nil {
		t.Errorf("the successor refuses a Put after a stale OnDeactivate: %v", err)
	}
}
