package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"asymstream/internal/kernel"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

func TestRingCapturesInvocations(t *testing.T) {
	ring := NewRing(256)
	k := kernel.New(kernel.Config{Trace: ring.Record})
	defer k.Shutdown()

	st := transput.NewROStage(k, transput.ROStageConfig{Name: "src"},
		func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
			for i := 0; i < 5; i++ {
				if err := outs[0].Put([]byte("x")); err != nil {
					return err
				}
			}
			return nil
		})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()
	in := transput.NewInPort(k, uid.Nil, id, transput.Chan(0), transput.InPortConfig{})
	for {
		if _, err := in.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}

	evs := ring.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	counts := ring.CountByOp()
	if counts[transput.OpTransfer] < 5 {
		t.Fatalf("Transfer events = %d, want >= 5 (ops: %v)", counts[transput.OpTransfer], counts)
	}
	for _, ev := range evs {
		if ev.Op == "" || ev.Target.IsNil() {
			t.Fatalf("malformed event %+v", ev)
		}
		if ev.Elapsed <= 0 {
			t.Fatalf("event without elapsed time: %+v", ev)
		}
		if ev.Err != "" {
			t.Fatalf("unexpected error event: %+v", ev)
		}
	}
	// MsgIDs identify, they do not order: each is drawn on the stripe
	// the sender happened to be on.
	seen := make(map[uint64]bool, len(evs))
	for _, ev := range evs {
		if ev.MsgID == 0 || seen[ev.MsgID] {
			t.Fatalf("MsgID %d is zero or repeated (events %+v)", ev.MsgID, evs)
		}
		seen[ev.MsgID] = true
	}
}

func TestRingCapturesErrors(t *testing.T) {
	ring := NewRing(16)
	k := kernel.New(kernel.Config{Trace: ring.Record})
	defer k.Shutdown()
	_, err := k.Invoke(uid.Nil, uid.New(), "Bogus.Op", &transput.ChannelsRequest{})
	if err == nil {
		t.Fatal("invocation of nothing succeeded")
	}
	evs := ring.Events()
	if len(evs) != 1 || evs[0].Err == "" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestRingWrapAround(t *testing.T) {
	ring := NewRing(4)
	for i := 0; i < 10; i++ {
		ring.Record(kernel.TraceEvent{MsgID: uint64(i + 1), Op: "op"})
	}
	if ring.Total() != 10 {
		t.Fatalf("total = %d", ring.Total())
	}
	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.MsgID != uint64(7+i) {
			t.Fatalf("wrap order: %v", evs)
		}
	}
	ring.Reset()
	if len(ring.Events()) != 0 {
		t.Fatal("reset did not clear")
	}
	if ring.Total() != 10 {
		t.Fatal("reset cleared the total")
	}
}

func TestDumpFormat(t *testing.T) {
	ring := NewRing(4)
	ring.Record(kernel.TraceEvent{MsgID: 7, Op: "Transput.Transfer", Target: uid.New(), Elapsed: 1500})
	ring.Record(kernel.TraceEvent{MsgID: 8, Op: "File.Open", Target: uid.New(), Err: "boom"})
	var buf bytes.Buffer
	if err := ring.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#7") || !strings.Contains(out, "Transput.Transfer") {
		t.Fatalf("dump = %q", out)
	}
	if !strings.Contains(out, "ERR boom") {
		t.Fatalf("dump missing error: %q", out)
	}
	if !strings.Contains(out, "external") {
		t.Fatalf("dump missing external marker: %q", out)
	}
}
