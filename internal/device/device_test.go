package device

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

func newDevKernel(t testing.TB) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{})
	t.Cleanup(k.Shutdown)
	return k
}

// syncBuffer is a goroutine-safe bytes.Buffer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func staticSrc(t *testing.T, k *kernel.Kernel, text string) *ReadFromRequest {
	t.Helper()
	id, ch, err := StaticSource(k, 0, transput.SplitLines([]byte(text)), transput.ROStageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &ReadFromRequest{Source: id, Channel: ch}
}

func TestTerminalPullsToScreen(t *testing.T) {
	k := newDevKernel(t)
	var screen syncBuffer
	_, termUID, err := NewTerminal(k, 0, &screen)
	if err != nil {
		t.Fatal(err)
	}
	req := staticSrc(t, k, "hello\nterminal\n")
	raw, err := k.Invoke(uid.Nil, termUID, OpReadFrom, req)
	if err != nil {
		t.Fatal(err)
	}
	rep := raw.(*ReadFromReply)
	if rep.Items != 2 || rep.Bytes != 15 {
		t.Fatalf("reply = %+v", rep)
	}
	if screen.String() != "hello\nterminal\n" {
		t.Fatalf("screen = %q", screen.String())
	}
}

func TestNullSinkCountsAndDiscards(t *testing.T) {
	k := newDevKernel(t)
	_, nullUID, err := NewNullSink(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := staticSrc(t, k, "a\nb\nc\n")
	raw, err := k.Invoke(uid.Nil, nullUID, OpReadFrom, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep := raw.(*ReadFromReply); rep.Items != 3 {
		t.Fatalf("null sink read %d items", rep.Items)
	}
}

func TestPrinterBannerAndJobs(t *testing.T) {
	k := newDevKernel(t)
	var paper syncBuffer
	p, prUID, err := NewPrinter(k, 0, &paper)
	if err != nil {
		t.Fatal(err)
	}
	req1 := staticSrc(t, k, "page one\n")
	req1.Label = "report.txt"
	if _, err := k.Invoke(uid.Nil, prUID, OpPrint, req1); err != nil {
		t.Fatal(err)
	}
	req2 := staticSrc(t, k, "second job\n")
	if _, err := k.Invoke(uid.Nil, prUID, OpPrint, req2); err != nil {
		t.Fatal(err)
	}
	out := paper.String()
	if !strings.Contains(out, "=== report.txt ===") {
		t.Errorf("missing labelled banner: %q", out)
	}
	if !strings.Contains(out, "=== job 2 ===") {
		t.Errorf("missing default banner: %q", out)
	}
	if strings.Count(out, "\f") != 2 {
		t.Errorf("form feeds: %q", out)
	}
	if p.Jobs() != 2 {
		t.Errorf("jobs = %d", p.Jobs())
	}
}

func TestClockSourceServesOnDemand(t *testing.T) {
	k := newDevKernel(t)
	fake := time.Date(1983, 10, 10, 12, 0, 0, 0, time.UTC)
	calls := 0
	_, clkUID, err := NewClockSource(k, 0, func() time.Time {
		calls++
		return fake.Add(time.Duration(calls) * time.Second)
	}, time.RFC3339)
	if err != nil {
		t.Fatal(err)
	}
	in := transput.NewInPort(k, uid.Nil, clkUID, transput.Chan(0), transput.InPortConfig{})
	first, err := in.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := in.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) == string(second) {
		t.Fatalf("clock repeated itself: %q", first)
	}
	if !strings.HasPrefix(string(first), "1983-10-10T") {
		t.Fatalf("timestamp = %q", first)
	}
	// The clock never generates unless asked (pure passive output).
	if calls != 2 {
		t.Fatalf("clock generated %d stamps for 2 reads", calls)
	}
}

func TestDeviceUnknownOp(t *testing.T) {
	k := newDevKernel(t)
	_, termUID, err := NewTerminal(k, 0, &syncBuffer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Invoke(uid.Nil, termUID, "Device.Bogus", &ReadFromRequest{}); !errors.Is(err, kernel.ErrNoSuchOperation) {
		t.Fatalf("want ErrNoSuchOperation, got %v", err)
	}
}

func TestReadFromBadSourceFails(t *testing.T) {
	k := newDevKernel(t)
	_, termUID, err := NewTerminal(k, 0, &syncBuffer{})
	if err != nil {
		t.Fatal(err)
	}
	req := &ReadFromRequest{Source: uid.New(), Channel: transput.Chan(0)}
	if _, err := k.Invoke(uid.Nil, termUID, OpReadFrom, req); err == nil {
		t.Fatal("ReadFrom nonexistent source succeeded")
	}
}
