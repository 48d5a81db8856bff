package core_test

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymstream/internal/uid"

	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/transput/internal/pull"
	"asymstream/internal/transput/internal/push"
)

// --- seqGate ---

// --- generation discipline: stale handles ---

// reissue makes a reference stale the dangerous way: 64 channels
// declared on a capability-mode OutPort (or WOInPort, if input) and
// retired through the face, then declarations on a second port until
// the pool hands one of their records back.  It returns the stale
// reference, as lookup resolved it before the retire, and the writer of
// the record's next life, holding one item.
func reissue(t *testing.T, input bool) (stale, *pull.ChannelWriter) {
	t.Helper()
	out, in := pull.NewOutPort(nil, pull.OutPortConfig{CapabilityMode: true}), push.NewWOInPort(nil, push.WOInPortConfig{CapabilityMode: true})
	old := make(map[*core.Channel]stale)
	for i := range 64 {
		var s stale
		if input {
			s.r = in.Declare("old", core.ChannelNum(i), 4, 1)
			s.ref = s.r.Ref()
		} else {
			s.w = out.Declare("old", core.ChannelNum(i), 4)
			s.ref = s.w.Ref()
		}
		old[s.ref.C] = s
	}
	reg, retire := out.Registry(), func(s stale) bool { return out.Retire(s.w) }
	if input {
		reg, retire = in.Registry(), func(s stale) bool { return in.Retire(s.r) }
	}
	for _, s := range old {
		id, _ := s.ref.Ident()
		if got, st := reg.Lookup(id); st != core.StatusOK || got != s.ref || !retire(s) || retire(s) {
			t.Fatalf("lookup %v, or Retire did not tear the channel down exactly once", st)
		}
		if _, st := reg.Lookup(id); st != core.StatusNotPermitted {
			t.Fatalf("lookup after retire: %v, want StatusNotPermitted", st)
		}
	}
	next := pull.NewOutPort(nil, pull.OutPortConfig{CapabilityMode: true})
	for i := range 64 {
		w := next.Declare("next", core.ChannelNum(i), 4)
		if s, ok := old[w.Ref().C]; ok {
			if err := w.Put([]byte("live")); err != nil {
				t.Fatal(err)
			}
			return s, w
		}
	}
	t.Skip("the pool reissued none of 64 retired records")
	return stale{}, nil
}

// stale is a handle made stale by Retire, with the reference it holds:
// a writer (w) or a reader (r).
type stale struct {
	ref core.ChanRef
	w   *pull.ChannelWriter
	r   *push.ChannelReader
}

// TestStaleHandle runs every operation on a record through a reference
// made stale by Retire and the record's reuse on another port.  Each
// gives its stale answer, and the successor stream — buffer, End marks,
// abort state, counters — does not move.
func TestStaleHandle(t *testing.T) {
	type state struct {
		buffered, ends     int
		abortErr           *itemio.AbortedError
		gen, out, tr, dels int64
	}
	snap := func(c *core.Channel) state {
		c.Mu.Lock()
		defer c.Mu.Unlock()
		return state{c.Buffered(), c.Ends(), c.AbortErr(), int64(c.Gen().Load()), c.ItemsOut, c.TransfersServed, c.DeliversServed}
	}
	item := func() []byte { return []byte("stale") }
	for _, row := range []struct {
		name  string
		input bool // declared on a WOInPort
		op    func(s stale) (got, want any)
	}{
		{"Put", false, func(s stale) (any, any) { return s.w.Put(item()), itemio.ErrClosed }},
		{"PutOwned", false, func(s stale) (any, any) { return s.w.PutOwned(item()), itemio.ErrClosed }},
		{"Close", false, func(s stale) (any, any) { return s.w.Close(), itemio.ErrClosed }},
		{"CloseWithError", false, func(s stale) (any, any) {
			return s.w.CloseWithError(errors.New("stale")), nil
		}},
		{"WriterID", false, func(s stale) (any, any) { return s.w.ID(), core.ChannelID{} }},
		{"Name", false, func(s stale) (any, any) { return s.w.Name(), "" }},
		{"Transfer", false, func(s stale) (any, any) { return s.ref.Take(4) == nil, true }},
		{"Next", true, func(s stale) (any, any) { _, err := s.r.Next(); return err, io.EOF }},
		{"Cancel", true, func(s stale) (any, any) { s.r.Cancel("stale"); return nil, nil }},
		{"ReaderID", true, func(s stale) (any, any) { return s.r.ID(), core.ChannelID{} }},
		{"Deliver", true, func(s stale) (any, any) {
			return s.ref.Absorb(&core.DeliverRequest{Items: [][]byte{item()}, End: true}) == nil, true
		}},
		// A PassiveBuffer's Buffered and OnDeactivate, as the record
		// calls they make (transput's TestStalePassiveBuffer runs the
		// Eject's own methods).
		{"Buffered", true, func(s stale) (any, any) {
			n := 0
			if c, ok := s.ref.Lock(); ok {
				n = c.Buffered()
				c.Mu.Unlock()
			}
			return n, 0
		}},
		{"OnDeactivate", true, func(s stale) (any, any) {
			_, ok := s.ref.Retire(&itemio.AbortedError{Msg: "buffer deactivated"})
			if ok {
				s.ref.Release()
			}
			return ok, false
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, next := reissue(t, row.input)
			before := snap(next.Ref().C)
			if got, want := row.op(s); got != want {
				t.Errorf("stale %s = %v, want %v", row.name, got, want)
			}
			if after := snap(next.Ref().C); after != before {
				t.Errorf("stale %s moved the successor stream: %+v -> %+v", row.name, before, after)
			}
		})
	}
}

// TestStaleHandleIdentity: once retired, a handle reports the zero
// identifier and name — never those of the stream its record serves
// next, here a channel of another port, declared while the handle is
// read.
func TestStaleHandleIdentity(t *testing.T) {
	ports := func() (*pull.OutPort, *push.WOInPort) {
		return pull.NewOutPort(nil, pull.OutPortConfig{CapabilityMode: true}), push.NewWOInPort(nil, push.WOInPortConfig{CapabilityMode: true})
	}
	a, ai := ports()
	b, bi := ports()
	w, r := a.Declare("a", 0, 4), ai.Declare("a", 0, 4, 1)
	a.Retire(w)
	ai.Retire(r)
	stale := func() error {
		if id, name, rid := w.ID(), w.Name(), r.ID(); id != (core.ChannelID{}) || name != "" || rid != (core.ChannelID{}) {
			return fmt.Errorf("stale handles report %v %q and %v", id, name, rid)
		}
		return nil
	}
	bw, br := b.Declare("b", 0, 4), bi.Declare("b", 0, 4, 1)
	if bw.Ref().C != w.Ref().C && br.Ref().C != r.Ref().C {
		t.Log("the pool reissued neither record to B; the churn below still may")
	}
	if err := stale(); err != nil {
		t.Fatalf("%v; B's are %v %q and %v", err, bw.ID(), bw.Name(), br.ID())
	}
	b.Retire(bw)
	bi.Retire(br)
	stop, done := make(chan struct{}), make(chan error)
	go func() { // reads the handles while B reissues their records
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := stale(); err != nil {
				<-stop
				done <- err
				return
			}
		}
	}()
	for i := 1; i < 2000; i++ {
		cw, cr := b.Declare("b", core.ChannelNum(i), 4), bi.Declare("b", core.ChannelNum(i), 4, 1)
		b.Retire(cw)
		bi.Retire(cr)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleStorm races handles — Put, Close, CloseWithError,
// Cancel, Next — against their own retire and the redeclaration of
// their records on a second port pair, which fills, drains and retires
// them.  No successor ever sees a stale item, a stale End mark or a
// stale abort.
func TestStaleHandleStorm(t *testing.T) {
	type handles struct {
		w *pull.ChannelWriter
		r *push.ChannelReader
	}
	var cur atomic.Pointer[handles]
	oldOut, oldIn := pull.NewOutPort(nil, pull.OutPortConfig{}), push.NewWOInPort(nil, push.WOInPortConfig{})
	cur.Store(&handles{oldOut.Declare("old", 0, 4), oldIn.Declare("old", 0, 4, 1)})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, op := range []func(h *handles){
		func(h *handles) { _ = h.w.Put([]byte("stale")) },
		func(h *handles) { _ = h.w.Close() },
		func(h *handles) { _ = h.w.CloseWithError(errors.New("stale")) },
		func(h *handles) { h.r.Cancel("stale") },
		func(h *handles) { _, _ = h.r.Next() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				op(cur.Load())
			}
		}()
	}
	defer func() { // the last handles are live: retiring them frees a blocked Put or Next
		stop.Store(true)
		h := cur.Load()
		oldOut.Retire(h.w)
		oldIn.Retire(h.r)
		wg.Wait()
	}()
	out, in := pull.NewOutPort(nil, pull.OutPortConfig{}), push.NewWOInPort(nil, push.WOInPortConfig{})
	for i := range 2000 {
		h := cur.Load()
		oldOut.Retire(h.w)
		oldIn.Retire(h.r)
		sw, sr := out.Declare("next", 1, 4), in.Declare("next", 1, 4, 1)
		if err := sw.Put([]byte("live")); err != nil {
			t.Fatalf("cycle %d: successor Put: %v", i, err)
		}
		if err := sw.Close(); err != nil {
			t.Fatalf("cycle %d: successor Close: %v", i, err)
		}
		if rep := sw.Ref().Take(4); rep == nil || rep.Status != core.StatusEnd || len(rep.Items) != 1 || string(rep.Items[0]) != "live" {
			t.Fatalf("cycle %d: successor Transfer: %+v", i, rep)
		}
		if rep := sr.Ref().Absorb(&core.DeliverRequest{Items: [][]byte{[]byte("live")}, End: true}); rep == nil || rep.Status != core.StatusOK {
			t.Fatalf("cycle %d: successor Deliver: %+v", i, rep)
		}
		if item, err := sr.Next(); err != nil || string(item) != "live" {
			t.Fatalf("cycle %d: successor Next: %q, %v", i, item, err)
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("cycle %d: successor after its End: %v, want io.EOF", i, err)
		}
		out.Retire(sw)
		in.Retire(sr)
		cur.Store(&handles{oldOut.Declare("old", 0, 4), oldIn.Declare("old", 0, 4, 1)})
	}
}

// TestFirstWaitStorm races the first wait on a record — the one that
// makes its cond — against the broadcasts that skip a cond not yet
// made.  Each round declares capacity-1 channels on new records (the
// pool emptied first) or on pooled ones, then releases at once three
// producers a channel, whose puts park at capacity, and three Transfer
// consumers, which park on the empty buffer.  Meanwhile every other
// channel is aborted or retired mid-stream.  Every item put into a
// channel that ends normally surfaces exactly once, no item surfaces
// twice or after its put failed, and every parked goroutine returns.
func TestFirstWaitStorm(t *testing.T) {
	const (
		rounds    = 40
		chans     = 8 // a round; odd ones are aborted or retired
		producers = 3 // a channel, as are consumers
		items     = 20
	)
	p := pull.NewOutPort(nil, pull.OutPortConfig{})
	for round := range rounds {
		if round%2 == 0 {
			runtime.GC()
			runtime.GC() // the second empties chanPool's victim cache
		}
		var (
			mu       sync.Mutex
			put      = map[string]bool{}
			surfaced = map[string]int{}
			wg       sync.WaitGroup
		)
		start := make(chan struct{})
		ws := make([]*pull.ChannelWriter, chans)
		taken := make([]atomic.Int64, chans)
		for i := range ws {
			w := p.Declare("c", core.ChannelNum(i), 1)
			ws[i] = w
			var fill sync.WaitGroup
			for pr := range producers {
				fill.Add(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer fill.Done()
					<-start
					for k := range items {
						item := fmt.Sprintf("%d/%d/%d/%d", round, i, pr, k)
						if w.Put([]byte(item)) != nil {
							return
						}
						mu.Lock()
						put[item] = true
						mu.Unlock()
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				fill.Wait()
				_ = w.Close()
			}()
			for range producers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for {
						rep := w.Ref().Take(1)
						if rep == nil {
							return
						}
						mu.Lock()
						for _, it := range rep.Items {
							surfaced[string(it)]++
						}
						mu.Unlock()
						taken[i].Add(int64(len(rep.Items)))
						if rep.Status != core.StatusOK {
							return
						}
					}
				}()
			}
			if i%2 == 1 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for taken[i].Load() < int64(round%items) {
						runtime.Gosched()
					}
					if i%4 == 1 {
						_ = w.CloseWithError(errors.New("storm"))
					} else {
						p.Retire(w)
					}
				}()
			}
		}
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("round %d: goroutines still parked:\n%s", round, buf[:runtime.Stack(buf, true)])
		}
		for item, n := range surfaced {
			if n != 1 || !put[item] {
				t.Fatalf("round %d: item %s surfaced %d times, its put succeeded: %v", round, item, n, put[item])
			}
		}
		for i := 0; i < chans; i += 2 {
			if n := taken[i].Load(); n != producers*items {
				t.Fatalf("round %d: channel %d surfaced %d items, want %d", round, i, n, producers*items)
			}
		}
		for _, w := range ws {
			p.Retire(w)
		}
	}
}

func TestRetireUpdatesGauges(t *testing.T) {
	p := pull.NewOutPort(nil, pull.OutPortConfig{CapabilityMode: true})
	met := p.Registry().Met
	var ws []*pull.ChannelWriter
	for i := 0; i < 10; i++ {
		ws = append(ws, p.Declare("c", core.ChannelNum(i), 4))
	}
	if got := met.ChannelsLive.Value(); got != 10 {
		t.Fatalf("ChannelsLive = %d, want 10", got)
	}
	perChan := met.IdleChannelBytes.Value() / 10
	if perChan <= 0 {
		t.Fatalf("IdleChannelBytes per channel = %d", perChan)
	}
	for _, w := range ws {
		p.Retire(w)
	}
	if got := met.ChannelsLive.Value(); got != 0 {
		t.Fatalf("ChannelsLive after retire = %d, want 0", got)
	}
	if got := met.IdleChannelBytes.Value(); got != 0 {
		t.Fatalf("IdleChannelBytes after retire = %d, want 0", got)
	}
	if got := p.Adverts(); len(got) != 0 {
		t.Fatalf("adverts after retire = %v", got)
	}
}

// --- capability cache ---

func TestCapCacheHitsAndInvalidation(t *testing.T) {
	p := push.NewWOInPort(nil, push.WOInPortConfig{CapabilityMode: true})
	met := p.Registry().Met
	r := p.Declare("in", 0, 4, 1)
	id := r.ID()
	if _, st := p.Registry().Lookup(id); st != core.StatusOK { // install
		t.Fatal(st)
	}
	base := met.CapabilityCacheHits.Value()
	for i := 0; i < 100; i++ {
		if _, st := p.Registry().Lookup(id); st != core.StatusOK {
			t.Fatal(st)
		}
	}
	if got := met.CapabilityCacheHits.Value() - base; got != 100 {
		t.Fatalf("cache hits = %d, want 100", got)
	}
	// Retire invalidates by generation: the cached entry must stop
	// resolving even though it still sits in its slot.
	p.Retire(r)
	if _, st := p.Registry().Lookup(id); st != core.StatusNotPermitted {
		t.Fatalf("stale cache entry resolved after retire: %v", st)
	}
	// Wrong capability never resolves.
	if _, st := p.Registry().Lookup(core.ChannelID{Num: 0, Cap: uid.New()}); st != core.StatusNotPermitted {
		t.Fatalf("forged capability resolved: %v", st)
	}
}

func TestCapLookupAllocFree(t *testing.T) {
	p := push.NewWOInPort(nil, push.WOInPortConfig{CapabilityMode: true})
	r := p.Declare("in", 0, 64, 1)
	id := r.ID()
	p.Registry().Lookup(id) // warm the cache slot
	if n := testing.AllocsPerRun(500, func() {
		if _, st := p.Registry().Lookup(id); st != core.StatusOK {
			t.Fatal(st)
		}
	}); n != 0 {
		t.Errorf("warm capability lookup allocates %.1f/op; want 0", n)
	}

	// The miss path: two live channels whose capabilities share a cache
	// slot evict each other on every lookup.
	p.Registry().SetMintCap(capsOnSlot(7))
	a, b := p.Declare("a", 1, 4, 1).ID(), p.Declare("b", 2, 4, 1).ID()
	misses := p.Registry().Met.CapabilityCacheMisses.Value()
	if n := testing.AllocsPerRun(500, func() {
		for _, id := range []core.ChannelID{a, b} {
			if _, st := p.Registry().Lookup(id); st != core.StatusOK {
				t.Fatal(st)
			}
		}
	}); n != 0 {
		t.Errorf("capability lookup that misses the cache allocates %.1f/op; want 0", n)
	}
	if got := p.Registry().Met.CapabilityCacheMisses.Value() - misses; got < 1000 {
		t.Fatalf("%d cache misses in 1000 conflicting lookups", got)
	}
}

// capsOnSlot mints capabilities that all fall in one slot of the
// capability cache.
func capsOnSlot(slot uint64) func() uid.UID {
	var lo atomic.Uint64
	return func() uid.UID {
		for {
			cp := uid.UID{Hi: 1, Lo: lo.Add(1)}
			if cp.Hash()&(core.CapCacheSlots-1) == slot {
				return cp
			}
		}
	}
}

// TestCapCacheStormOnOneSlot: lookups against Retire and re-Declare with
// every capability in one cache slot, so each install evicts a live
// entry while readers are in it.  A lookup must never resolve a
// capability to a reference that was issued for another —
// which a reader that mixed two entries' fields would.
func TestCapCacheStormOnOneSlot(t *testing.T) {
	p := push.NewWOInPort(nil, push.WOInPortConfig{CapabilityMode: true})
	p.Registry().SetMintCap(capsOnSlot(11))
	var (
		issued sync.Map // chanRef -> capability it was declared under
		recent [8]atomic.Pointer[core.ChannelID]
		stop   atomic.Bool
		wg     sync.WaitGroup // readers
		churn  sync.WaitGroup // writers
	)
	const writers, readers, cycles = 2, 4, 1000
	for w := range writers {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := range cycles {
				r := p.Declare("c", core.ChannelNum(w*cycles+i), 4, 1)
				id := r.ID()
				issued.Store(r.Ref(), id.Cap)
				recent[(w+i*writers)%len(recent)].Store(&id)
				p.Registry().Lookup(id)
				if i%4 != 0 { // some stay live a while, so hits and misses interleave
					p.Retire(r)
				}
			}
		}()
	}
	var resolved atomic.Int64
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				id := recent[i%len(recent)].Load()
				if id == nil {
					continue
				}
				ref, st := p.Registry().Lookup(*id)
				if st != core.StatusOK {
					continue
				}
				resolved.Add(1)
				if cp, ok := issued.Load(ref); !ok || cp != id.Cap {
					t.Errorf("capability %v resolved to a record issued for %v", id.Cap, cp)
					return
				}
			}
		}()
	}
	churn.Wait()
	stop.Store(true)
	wg.Wait()
	if resolved.Load() < cycles {
		t.Fatalf("only %d lookups resolved while %d channels came and went", resolved.Load(), writers*cycles)
	}
}

// --- churn allocation ceilings (the pooled-record contract) ---

// TestDeclareRetireChurnAllocs pins the per-cycle allocation cost of
// open/close churn on both port types.  The pooled records mean a
// cycle costs the application handle (1.00 measured) rather than a
// fresh record and buffer per channel; the ceiling leaves room for the
// records sync.Pool drops under -race.
func TestDeclareRetireChurnAllocs(t *testing.T) {
	outPort := pull.NewOutPort(nil, pull.OutPortConfig{CapabilityMode: true})
	num := core.ChannelNum(0)
	cycle := func() {
		w := outPort.Declare("c", num, 8)
		num++
		if !outPort.Retire(w) {
			t.Fatal("retire failed")
		}
	}
	for i := 0; i < warmupChurn; i++ {
		cycle()
	}
	const ceiling = 2
	if n := testing.AllocsPerRun(500, cycle); n > ceiling {
		t.Errorf("OutPort declare/retire churn: %.1f allocs/cycle, ceiling %d", n, ceiling)
	}

	woPort := push.NewWOInPort(nil, push.WOInPortConfig{CapabilityMode: true})
	woCycle := func() {
		r := woPort.Declare("c", num, 8, 1)
		num++
		if !woPort.Retire(r) {
			t.Fatal("retire failed")
		}
	}
	for i := 0; i < warmupChurn; i++ {
		woCycle()
	}
	if n := testing.AllocsPerRun(500, woCycle); n > ceiling {
		t.Errorf("WOInPort declare/retire churn: %.1f allocs/cycle, ceiling %d", n, ceiling)
	}
}

const warmupChurn = 256

// TestChurnReusesRecords proves the pool actually recycles: a
// single-threaded declare→retire loop must revisit records rather
// than growing the heap per cycle.
func TestChurnReusesRecords(t *testing.T) {
	p := pull.NewOutPort(nil, pull.OutPortConfig{})
	seen := make(map[*core.Channel]int)
	for i := 0; i < 64; i++ {
		w := p.Declare("c", 0, 8)
		seen[w.Ref().C]++
		p.Retire(w)
	}
	if len(seen) == 64 {
		t.Error("64 cycles used 64 distinct records; pool is not recycling")
	}
}
