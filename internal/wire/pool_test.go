package wire

import (
	"bytes"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"testing"
)

// poolRec is the record of the pool these tests draw from; poolResets
// counts the pool's resets.
type poolRec struct {
	n      int
	next   *poolRec
	pooled bool
}

var (
	poolResets atomic.Int64
	poolRecs   = NewPool(func(r *poolRec) *bool { return &r.pooled },
		func(r *poolRec) { poolResets.Add(1); *r = poolRec{} })
)

// release puts its receiver back, as (*kernel.Call).release does.
func (r *poolRec) release() { poolRecs.Put(r) }

// TestPoolRecyclesOnlyWhatItIssued: Put resets and recycles a record
// Get issued, once; a Put of a record a caller built, or a second Put of
// an issued one, leaves it alone.  In a race build the second Put is
// itself a use after Put, which TestUseAfterPutIsARace shows reported.
func TestPoolRecyclesOnlyWhatItIssued(t *testing.T) {
	before := poolResets.Load()
	own := &poolRec{n: 7}
	poolRecs.Put(own)
	if got := poolResets.Load() - before; got != 0 || own.n != 7 {
		t.Errorf("Put of a caller-built record: %d resets, n = %d; want 0 and 7", got, own.n)
	}
	r := poolRecs.Get()
	r.n = 1
	poolRecs.Put(r)
	if got := poolResets.Load() - before; got != 1 {
		t.Errorf("Put of an issued record: %d resets, want 1", got)
	}
	if !raceBuild {
		poolRecs.Put(r)
		if got := poolResets.Load() - before; got != 1 {
			t.Errorf("second Put of a record: %d resets in all, want 1", got)
		}
	}
}

// TestNewPoolRejectsAnOutsideMark: the mark must be a field of the
// record.
func TestNewPoolRejectsAnOutsideMark(t *testing.T) {
	var elsewhere bool
	defer func() {
		if recover() == nil {
			t.Error("NewPool accepted a mark outside the record")
		}
	}()
	NewPool(func(*poolRec) *bool { return &elsewhere }, nil)
}

// useAfterPutEnv names the case a child of TestUseAfterPutIsARace runs.
const useAfterPutEnv = "WIRE_USE_AFTER_PUT"

var sinkN int

// readAfterPut is the generic form: a pool of any record, read after
// its Put.
func readAfterPut[T any](p *Pool[T], read func(*T) int) int {
	r := p.Get()
	p.Put(r)
	return read(r)
}

// useAfterPut holds the child's cases: each but "clean" touches a
// record after its Put.
var useAfterPut = map[string]func(){
	"field": func() {
		r := poolRecs.Get()
		r.n = 1
		poolRecs.Put(r)
		sinkN = r.n
	},
	"method": func() {
		r := poolRecs.Get()
		r.n = 1
		r.release()
		sinkN = r.n
	},
	"generic": func() {
		sinkN = readAfterPut(poolRecs, func(r *poolRec) int { return r.n })
	},
	"second-put": func() {
		r := poolRecs.Get()
		poolRecs.Put(r)
		poolRecs.Put(r)
	},
	"clean": func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					r := poolRecs.Get()
					r.n = i
					r.next = r
					if r.next.n != i {
						panic("record changed under its holder")
					}
					poolRecs.Put(r)
				}
			}()
		}
		wg.Wait()
	},
}

// TestUseAfterPutIsARace: in a race build, a read of a record after its
// Put — directly, after a method that Puts its receiver, or through a
// generic function — and a second Put are data races the detector
// reports every time, and a thousand clean Get/Put cycles report none.
// Each case runs in a child process, this test binary.
func TestUseAfterPutIsARace(t *testing.T) {
	if c := os.Getenv(useAfterPutEnv); c != "" {
		useAfterPut[c]()
		return
	}
	if !raceBuild {
		t.Skip("only a race build reports a use after Put")
	}
	for name := range useAfterPut {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestUseAfterPutIsARace$", "-test.count=1")
			cmd.Env = append(os.Environ(), useAfterPutEnv+"="+name,
				"GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
			out, err := cmd.CombinedOutput()
			raced := bytes.Contains(out, []byte("DATA RACE"))
			if name == "clean" {
				if err != nil || raced {
					t.Errorf("clean cycles failed (%v):\n%s", err, out)
				}
			} else if err == nil || !raced {
				t.Errorf("use after Put went unreported (exit %v, race reported %v):\n%s", err, raced, out)
			}
		})
	}
}
