package transput

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"asymstream/internal/uid"
)

// --- seqGate ---

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

// --- generation discipline / Retire ---

func TestOutPortRetire(t *testing.T) {
	p := NewOutPort(nil, OutPortConfig{CapabilityMode: true})
	w := p.Declare("out", 0, 4)
	id := w.ID()
	if _, _, st := p.lookup(id); st != StatusOK {
		t.Fatalf("lookup before retire: %v", st)
	}
	if !p.Retire(w) {
		t.Fatal("first Retire returned false")
	}
	if p.Retire(w) {
		t.Fatal("second Retire should be a no-op")
	}
	if _, _, st := p.lookup(id); st != StatusNotPermitted {
		t.Fatalf("lookup after retire: %v, want StatusNotPermitted", st)
	}
	if err := w.Put([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on retired writer: %v, want ErrClosed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Close on retired writer: %v, want ErrClosed", err)
	}
	// A stale CloseWithError must not abort the record's next life.
	w2 := p.Declare("next", 1, 4)
	if w2.ch == w.ch { // pooled reuse: the dangerous case this exercises
		_ = w.CloseWithError(errors.New("stale"))
		if err := w2.Put([]byte("y")); err != nil {
			t.Fatalf("stale CloseWithError leaked into reused record: %v", err)
		}
	}
}

func TestWOInPortRetire(t *testing.T) {
	p := NewWOInPort(nil, WOInPortConfig{CapabilityMode: true})
	r := p.Declare("in", 0, 4, 1)
	id := r.ID()
	if _, _, st := p.lookup(id); st != StatusOK {
		t.Fatalf("lookup before retire: %v", st)
	}
	if !p.Retire(r) {
		t.Fatal("first Retire returned false")
	}
	if p.Retire(r) {
		t.Fatal("second Retire should be a no-op")
	}
	if _, _, st := p.lookup(id); st != StatusNotPermitted {
		t.Fatalf("lookup after retire: %v, want StatusNotPermitted", st)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on retired reader: %v, want io.EOF", err)
	}
	r.Cancel("stale") // must not poison the record's next incarnation
}

func TestRetireUpdatesGauges(t *testing.T) {
	p := NewOutPort(nil, OutPortConfig{CapabilityMode: true})
	met := p.met
	var ws []*ChannelWriter
	for i := 0; i < 10; i++ {
		ws = append(ws, p.Declare("c", ChannelNum(i), 4))
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
	p := NewWOInPort(nil, WOInPortConfig{CapabilityMode: true})
	met := p.met
	r := p.Declare("in", 0, 4, 1)
	id := r.ID()
	if _, _, st := p.lookup(id); st != StatusOK { // install
		t.Fatal(st)
	}
	base := met.CapabilityCacheHits.Value()
	for i := 0; i < 100; i++ {
		if _, _, st := p.lookup(id); st != StatusOK {
			t.Fatal(st)
		}
	}
	if got := met.CapabilityCacheHits.Value() - base; got != 100 {
		t.Fatalf("cache hits = %d, want 100", got)
	}
	// Retire invalidates by generation: the cached entry must stop
	// resolving even though it still sits in its slot.
	p.Retire(r)
	if _, _, st := p.lookup(id); st != StatusNotPermitted {
		t.Fatalf("stale cache entry resolved after retire: %v", st)
	}
	// Wrong capability never resolves.
	if _, _, st := p.lookup(ChannelID{Num: 0, Cap: uid.New()}); st != StatusNotPermitted {
		t.Fatalf("forged capability resolved: %v", st)
	}
}

func TestCapLookupAllocFree(t *testing.T) {
	p := NewWOInPort(nil, WOInPortConfig{CapabilityMode: true})
	r := p.Declare("in", 0, 64, 1)
	id := r.ID()
	p.lookup(id) // warm the cache slot
	if n := testing.AllocsPerRun(500, func() {
		if _, _, st := p.lookup(id); st != StatusOK {
			t.Fatal(st)
		}
	}); n != 0 {
		t.Errorf("warm capability lookup allocates %.1f/op; want 0", n)
	}

	// The miss path: two live channels whose capabilities share a cache
	// slot evict each other on every lookup.
	p.mintCap = capsOnSlot(7)
	a, b := p.Declare("a", 1, 4, 1).ID(), p.Declare("b", 2, 4, 1).ID()
	misses := p.met.CapabilityCacheMisses.Value()
	if n := testing.AllocsPerRun(500, func() {
		for _, id := range []ChannelID{a, b} {
			if _, _, st := p.lookup(id); st != StatusOK {
				t.Fatal(st)
			}
		}
	}); n != 0 {
		t.Errorf("capability lookup that misses the cache allocates %.1f/op; want 0", n)
	}
	if got := p.met.CapabilityCacheMisses.Value() - misses; got < 1000 {
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
			if cp.Hash()&(capCacheSlots-1) == slot {
				return cp
			}
		}
	}
}

// TestCapCacheStormOnOneSlot: lookups against Retire and re-Declare with
// every capability in one cache slot, so each install evicts a live
// entry while readers are in it.  A lookup must never resolve a
// capability to a (record, generation) that was issued for another —
// which a reader that mixed two entries' fields would.
func TestCapCacheStormOnOneSlot(t *testing.T) {
	p := NewWOInPort(nil, WOInPortConfig{CapabilityMode: true})
	p.mintCap = capsOnSlot(11)
	type issue struct {
		ch  *channel
		gen uint64
	}
	var (
		issued sync.Map // issue -> capability it was declared under
		recent [8]atomic.Pointer[ChannelID]
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
				r := p.Declare("c", ChannelNum(w*cycles+i), 4, 1)
				id := r.ID()
				issued.Store(issue{r.ch, r.gen}, id.Cap)
				recent[(w+i*writers)%len(recent)].Store(&id)
				p.lookup(id)
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
				ch, gen, st := p.lookup(*id)
				if st != StatusOK {
					continue
				}
				resolved.Add(1)
				if cp, ok := issued.Load(issue{ch, gen}); !ok || cp != id.Cap {
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
// cycle costs the application handle, the table entries and amortised
// stripe promotions — a small fixed number — rather than a fresh
// record, cond and buffer per channel.
func TestDeclareRetireChurnAllocs(t *testing.T) {
	outPort := NewOutPort(nil, OutPortConfig{CapabilityMode: true})
	num := ChannelNum(0)
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
	const ceiling = 10
	if n := testing.AllocsPerRun(500, cycle); n > ceiling {
		t.Errorf("OutPort declare/retire churn: %.1f allocs/cycle, ceiling %d", n, ceiling)
	}

	woPort := NewWOInPort(nil, WOInPortConfig{CapabilityMode: true})
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
	p := NewOutPort(nil, OutPortConfig{})
	seen := make(map[*channel]int)
	for i := 0; i < 64; i++ {
		w := p.Declare("c", 0, 8)
		seen[w.ch]++
		p.Retire(w)
	}
	if len(seen) == 64 {
		t.Error("64 cycles used 64 distinct records; pool is not recycling")
	}
}

func TestStaleServeRejectedAfterReuse(t *testing.T) {
	// Simulate the lookup/lock race: a server thread resolves a channel,
	// the channel is retired and its record reissued, and only then does
	// the server lock the record.  The generation check must refuse it.
	p := NewWOInPort(nil, WOInPortConfig{})
	r1 := p.Declare("a", 0, 4, 1)
	ch, gen, st := p.lookup(Chan(0))
	if st != StatusOK {
		t.Fatal(st)
	}
	p.Retire(r1)
	r2 := p.Declare("b", 1, 4, 1)
	_ = r2
	ch.mu.Lock()
	stale := ch.gen.Load() != gen
	ch.mu.Unlock()
	if !stale {
		t.Fatal("generation unchanged across retire; stale servers could cross streams")
	}
}
