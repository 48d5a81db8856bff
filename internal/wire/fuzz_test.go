package wire

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"asymstream/internal/metrics"
)

// FuzzDecode pins the package contract that hostile input is an error,
// never a panic: truncated frames, foreign tags, lying length fields,
// malformed varints and garbage gob streams must all return cleanly.
func FuzzDecode(f *testing.F) {
	seed := [][]byte{
		nil,
		{0},
		{TagBytes, 0, 0, 0, 0},
		{TagBytes, 0, 0, 0, 9, 'x'}, // length past end
		{TagString, 0, 0, 0, 2, 'h', 'i'},
		{TagInt64, 0, 0, 0, 1, 0x04},
		{TagInt64, 0, 0, 0, 0},                  // empty varint
		{TagByteSlices, 0, 0, 0, 1, 0xFF},       // count varint truncated
		{TagRecord, 0, 0, 0, 2, 0xFE, 0x7F},     // unregistered id
		{TagGob, 0, 0, 0, 2, 0xde, 0xad},        // garbage gob
		{0x7F, 0, 0, 0, 0},                      // foreign tag
		{TagBytes, 0xFF, 0xFF, 0xFF, 0xFF, 'x'}, // absurd length
	}
	if enc, err := Append(nil, [][]byte{[]byte("a"), []byte("bb")}); err == nil {
		seed = append(seed, enc)
	}
	if enc, err := Append(nil, int64(-1983)); err == nil {
		seed = append(seed, enc)
	}
	if enc, err := Append(nil, nil); err == nil {
		seed = append(seed, enc) // a nil interface, which only gob carries
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := Decode(b)
		if err != nil {
			return
		}
		if n < HeaderBytes || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if v == nil && b[0] != TagGob {
			t.Fatal("nil value with nil error from a frame that cannot carry nil")
		}
	})
}

// FuzzSlabViews drives the slab refcount machinery with an arbitrary
// op program — alloc, retain, release, detach, sub-view registration,
// non-view probes, Close, integrity sweep — while mirroring every
// handle in a shadow model: a plain map from a view's base pointer to
// the handles expected on it.  Invariants checked on every step and at
// teardown:
//
//   - Alloc returns a live view of the requested length, never over a
//     view the model still holds (a recycled chunk is carved again from
//     the same offsets), and writes to one view never bleed into
//     another (capacity-clipped subslices);
//   - an extra handle (RegisterSubview at the view's own base) and
//     Release on a live view always succeed, and a view dies
//     exactly when its shadow count hits zero;
//   - RegisterSubview at an interior offset creates a view with a count
//     of its own that outlives its owner, and at the owner's own base
//     (or over a view registered before) adds a handle to that view;
//   - a heap slice, an address inside a chunk that is no view's base and
//     an already-released view are not views to IsView, RegisterSubview,
//     Release or Detach, and probing them moves no count;
//   - Detach hands back the view's bytes intact, in place exactly when
//     the view is of SpliceCutoff bytes or more and the model holds one
//     handle on it, and as a copy otherwise;
//   - a slice Detach handed over in place keeps its bytes through every
//     later op (nothing is carved over it again) and is no view to any
//     call;
//   - Detach's precondition holds in the model: once it hands a view
//     over in place, every other live view over those bytes (an owner
//     or a sub-view) is only released — no longer read, detached or
//     registered from;
//   - Close reports the model's handle total, and every later release
//     still succeeds;
//   - once the shadow model is drained, Outstanding() == 0,
//     SlabRetained == SlabReleased, and after Close no chunk of the slab
//     is still in the address index.
func FuzzSlabViews(f *testing.F) {
	f.Add([]byte{0, 4, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0, 64, 0, 64, 1, 1, 3, 0, 2, 0, 2, 1, 4, 0})
	f.Add([]byte{0, 1, 1, 0, 1, 0, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 250, 0, 250, 0, 250, 4, 0})                     // dedicated oversize chunks
	f.Add([]byte{0, 99, 5, 0, 5, 7, 5, 7, 2, 0, 6, 0, 4, 0, 2, 0})  // sub-views outlive their owner
	f.Add([]byte{0, 255, 0, 255, 2, 0, 2, 0, 0, 255, 6, 1, 0, 255}) // recycle, re-carve, probe the stale view
	f.Add([]byte{0, 255, 0, 0, 2, 0, 2, 0, 0, 255, 0, 0, 4, 0})     // park two sizes: the top one misses, then fits
	f.Add([]byte{0, 30, 0, 30, 7, 0, 6, 2, 2, 0, 0, 30, 3, 0})      // Close with live views, late releases, Alloc after
	f.Add([]byte{0, 102, 0, 127, 3, 0, 0, 102, 4, 0})               // a kept chunk dies sealed: never carved again
	f.Add([]byte{0, 150, 3, 0, 0, 150, 0, 150, 6, 1})               // a kept carve target is sealed empty
	f.Add([]byte{0, 150, 1, 0, 3, 0, 3, 0, 0, 150})                 // shared: a copy, then in place
	f.Add([]byte{0, 255, 5, 8, 2, 0, 3, 0, 0, 255, 5, 0, 4, 0})     // a large sub-view outlives its owner, in place
	f.Add([]byte{0, 150, 5, 8, 3, 1, 4, 0, 2, 0, 0, 150, 4, 0})     // the reader's way: a sub-view in place, its owner only released
	f.Add([]byte{0, 150, 5, 8, 3, 0, 3, 0, 4, 0, 2, 0, 0, 150})     // the owner in place: its sub-view only released
	f.Add([]byte{0, 150, 0, 40, 3, 0, 7, 0, 2, 0, 0, 150})          // Close a kept carve target's slab
	// More views on one chunk than the table it carries holds: the table
	// spills to the heap; the chunk dies, is parked, and is carved again
	// past that size into the spilled table it kept.
	f.Add(slices.Concat(bytes.Repeat([]byte{0, 0}, 70), []byte{0, 199},
		bytes.Repeat([]byte{2, 0}, 70), bytes.Repeat([]byte{0, 0}, 75), []byte{4, 0, 7, 0}))
	f.Fuzz(func(t *testing.T, prog []byte) {
		met := &metrics.Set{}
		slab := NewSlab(met, 2*SpliceCutoff)
		type shadow struct {
			view []byte
			refs int
			want byte
			// handedOver: Detach gave another view's bytes, which this one
			// shares, away in place, so it is only released from now on.
			handedOver bool
		}
		var (
			live   []*shadow
			model  = map[*byte]*shadow{}
			stale  [][]byte  // views the model saw die
			kept   []*shadow // what Detach handed over in place, with the bytes it held
			closed bool
			leaked int64
		)
		handles := func() (n int64) {
			for _, s := range live {
				n += int64(s.refs)
			}
			return n
		}
		check := func(s *shadow) {
			t.Helper()
			for i, b := range s.view {
				if b != s.want {
					t.Fatalf("view content corrupted at [%d]: got %#x want %#x", i, b, s.want)
				}
			}
		}
		pick := func(arg byte) *shadow {
			if len(live) == 0 {
				return nil
			}
			return live[int(arg)%len(live)]
		}
		add := func(v []byte, want byte) {
			s := &shadow{view: v, refs: 1, want: want}
			live = append(live, s)
			model[&v[0]] = s
		}
		unref := func(s *shadow) {
			if s.refs--; s.refs > 0 {
				return
			}
			delete(model, &s.view[0])
			stale = append(stale, s.view)
			for i, x := range live {
				if x == s {
					live = append(live[:i], live[i+1:]...)
					return
				}
			}
		}
		// notView probes b — which the model says is no live view's base —
		// with every operation and checks that none of them took it for one.
		notView := func(what string, b []byte) {
			t.Helper()
			before := slab.Outstanding()
			if IsView(b) || RegisterSubview(b, b) || Release(b) {
				t.Fatalf("%s taken for a live view", what)
			}
			if out := Detach(b); &out[0] != &b[0] {
				t.Fatalf("Detach copied %s", what)
			}
			if n := slab.Outstanding(); n != before {
				t.Fatalf("probing %s moved Outstanding() %d -> %d", what, before, n)
			}
		}
		overlap := func(a, b []byte) bool {
			pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
			return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
		}
		// checkKept: what Detach handed over in place is the caller's for
		// good — its bytes as they were, and no view to any call.
		checkKept := func() {
			t.Helper()
			for _, k := range kept {
				check(k)
				notView("a slice Detach handed over in place", k.view)
			}
		}
		seq := byte(0)
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%8, prog[pc+1]
			switch op {
			case 0: // alloc
				n := (int(arg) + 1) * 20 // 20 B–5 KiB: SpliceCutoff from arg 102, past the 4 KiB chunk from 204
				v := slab.Alloc(n)
				if len(v) != n {
					t.Fatalf("Alloc(%d) returned %d bytes", n, len(v))
				}
				if !IsView(v) {
					t.Fatal("Alloc result is not a live view")
				}
				if model[&v[0]] != nil {
					t.Fatal("Alloc carved over a view that is still live")
				}
				seq++
				for i := range v {
					v[i] = seq
				}
				add(v, seq)
			case 1: // an extra handle
				if s := pick(arg); s != nil {
					if !RegisterSubview(s.view, s.view) {
						t.Fatal("RegisterSubview(v, v) on a live view reported non-view")
					}
					s.refs++
				}
			case 2: // release
				if s := pick(arg); s != nil {
					if !s.handedOver {
						check(s)
					}
					if !Release(s.view) {
						t.Fatal("Release on a live view reported non-view")
					}
					unref(s)
				}
			case 3: // detach: in place iff large and the last handle, a copy otherwise
				if s := pick(arg); s != nil && !s.handedOver {
					inPlace := len(s.view) >= SpliceCutoff && s.refs == 1
					out := Detach(s.view)
					if got := &out[0] == &s.view[0]; got != inPlace {
						t.Fatalf("Detach of a %d-byte view with %d handles: in place = %v, want %v",
							len(s.view), s.refs, got, inPlace)
					}
					if len(out) != len(s.view) || inPlace && cap(out) != len(out) {
						t.Fatalf("Detach returned %d bytes (cap %d), view had %d", len(out), cap(out), len(s.view))
					}
					for i, b := range out {
						if b != s.want {
							t.Fatalf("Detach result corrupted at [%d]: got %#x want %#x", i, b, s.want)
						}
					}
					unref(s)
					if inPlace {
						kept = append(kept, &shadow{view: out, want: s.want})
						for _, x := range live {
							x.handedOver = x.handedOver || overlap(x.view, out)
						}
					}
				}
			case 4: // integrity sweep over everything still live
				for _, s := range live {
					if !IsView(s.view) {
						t.Fatalf("live view (refs=%d) no longer registered", s.refs)
					}
					if !s.handedOver {
						check(s)
					}
				}
			case 5: // register a sub-view: arg picks the owner and the offset in it
				if s := pick(arg); s != nil && !s.handedOver {
					off := int(arg>>3) % len(s.view) // 0 is the owner's own base
					sub := s.view[off:]
					if !RegisterSubview(s.view, sub) {
						t.Fatal("RegisterSubview on a live owner reported non-view")
					}
					if prior := model[&sub[0]]; prior != nil {
						prior.refs++
					} else {
						add(sub, s.want)
					}
				}
			case 6: // probe things that are not views
				switch arg % 3 {
				case 0:
					notView("a heap slice", []byte{1, 2, 3})
				case 1:
					for _, b := range stale {
						if model[&b[0]] == nil { // not carved or registered again since
							notView("an already-released view", b)
						}
					}
				case 2:
					if s := pick(arg >> 2); s != nil {
						for i := 1; i < len(s.view); i++ {
							if model[&s.view[i]] == nil {
								notView("an interior pointer", s.view[i:])
								if RegisterSubview(s.view[i:], s.view[i:]) {
									t.Fatal("RegisterSubview took an interior pointer for an owner")
								}
								break
							}
						}
					}
				}
			case 7: // Close: the audit, then late releases
				want := handles()
				if got := slab.Close(); got != want {
					t.Fatalf("Close() = %d, model holds %d handles", got, want)
				}
				if !closed {
					closed, leaked = true, want
				}
			}
			if got, want := slab.Outstanding(), handles(); got != want {
				t.Fatalf("after op %d: Outstanding() = %d, model holds %d handles", op, got, want)
			}
			checkKept()
		}
		// Drain the shadow model; the slab must agree it is empty.
		for _, s := range live {
			if !s.handedOver {
				check(s)
			}
			for i := 0; i < s.refs; i++ {
				if !Release(s.view) {
					t.Fatalf("drain: Release %d/%d reported non-view", i+1, s.refs)
				}
			}
			if IsView(s.view) {
				t.Fatal("drain: view survived its last release")
			}
		}
		checkKept()
		if n := slab.Outstanding(); n != 0 {
			t.Fatalf("Outstanding() = %d after drain", n)
		}
		if n := slab.Close(); n != 0 {
			t.Fatalf("Close() reports %d leaked views after drain", n)
		}
		if ret, rel := met.SlabRetained.Value(), met.SlabReleased.Value(); ret != rel {
			t.Fatalf("metrics out of balance: retained=%d released=%d", ret, rel)
		}
		if n := met.SlabLeaked.Value(); n != leaked {
			t.Fatalf("SlabLeaked = %d, the first Close saw %d", n, leaked)
		}
		if n := chunksListed(slab); n != 0 {
			t.Fatalf("%d chunks of a closed, drained slab are still in the address index", n)
		}
	})
}

// FuzzArenaReclaim runs Copy/Reclaim programs against a shadow of the
// arena's spares.  Each pair of bytes is an operation and its argument:
//
//	0 n  Copy an item whose size n picks, either side of SpliceCutoff
//	1 k  Reclaim up to four live copies from the k-th on; they are dead
//	2 n  Reclaim foreign slices: a prefix of a larger buffer (cap > len)
//	     and a small one, which the arena must never hand out
//	3 k  scribble over the k-th live copy, as its owner may
//
// After every step: each copy handed out has cap == len and overlaps no
// live copy and no foreign slice, the large ones are the shadow's spare
// where it had one that fits, and the spares and the large copies still
// live never number more than the most large copies live at once; at the
// end every live copy and foreign buffer still holds its bytes.  A
// foreign slice shaped like a copy (cap == len, SpliceCutoff or more) is
// left out: Reclaim cannot tell it from one, and the records' rule
// (transput's TestPutCopyRecycleOwnership) keeps it away.
func FuzzArenaReclaim(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 1, 2, 0, 1, 0, 1, 0, 1})                   // reclaim two, reuse both, one fresh
	f.Add([]byte{0, 1, 1, 0, 0, 99, 0, 1})                              // a short spare is dropped, not handed out
	f.Add([]byte{0, 1, 2, 5, 0, 1, 2, 7, 0, 1, 1, 0, 0, 1})             // foreign slices between copies
	f.Add([]byte{0, 1, 0, 3, 3, 0, 1, 1, 0, 1, 3, 0, 0, 3})             // scribbles on live copies around reuse
	f.Add([]byte{0, 1, 0, 3, 0, 5, 0, 7, 0, 9, 1, 2, 0, 1, 0, 3, 0, 5}) // a batch of three
	f.Add([]byte{0, 2, 0, 1, 0, 4, 1, 3, 0, 1})                         // small items in a reclaimed batch
	f.Fuzz(func(t *testing.T, prog []byte) {
		var a Arena
		type copyOf struct {
			b    []byte
			fill byte
		}
		var (
			live    []*copyOf
			foreign []*copyOf // whole buffers, prefixes of which were reclaimed
			spares  [][]byte  // the shadow: what Reclaim took, latest last
			fill    byte
			peak    int // the most large copies live at once
		)
		large := func() (n int) {
			for _, c := range live {
				if len(c.b) >= SpliceCutoff {
					n++
				}
			}
			return n
		}
		overlaps := func(p, q []byte) bool {
			if len(p) == 0 || len(q) == 0 {
				return false
			}
			p0, q0 := uintptr(unsafe.Pointer(&p[0])), uintptr(unsafe.Pointer(&q[0]))
			return p0 < q0+uintptr(len(q)) && q0 < p0+uintptr(len(p))
		}
		intact := func(c *copyOf) bool {
			for _, x := range c.b {
				if x != c.fill {
					return false
				}
			}
			return true
		}
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i]%4, int(prog[i+1])
			switch op {
			case 0:
				n := 1 + arg*7
				if arg%2 == 1 {
					n = SpliceCutoff + arg*7
				}
				fill++
				c := a.Copy(bytes.Repeat([]byte{fill}, n))
				if len(c) != n || cap(c) != n {
					t.Fatalf("step %d: Copy of %d bytes gave len %d, cap %d", i, n, len(c), cap(c))
				}
				for _, o := range live {
					if overlaps(c, o.b) {
						t.Fatalf("step %d: Copy handed out a live copy's bytes", i)
					}
				}
				for _, o := range foreign {
					if overlaps(c, o.b) {
						t.Fatalf("step %d: Copy handed out a foreign slice's bytes", i)
					}
				}
				if n >= SpliceCutoff && len(spares) > 0 {
					s := spares[len(spares)-1]
					spares = spares[:len(spares)-1]
					if fits := len(s) >= n; fits != (unsafe.SliceData(c) == unsafe.SliceData(s)) {
						t.Fatalf("step %d: a %d-byte spare for a %d-byte item: reused %v", i, len(s), n, !fits)
					}
				}
				live = append(live, &copyOf{c, fill})
				peak = max(peak, large())
			case 1:
				if len(live) == 0 {
					continue
				}
				from := arg % len(live)
				to := min(from+1+arg%4, len(live))
				batch := make([][]byte, 0, to-from)
				for _, c := range live[from:to] {
					batch = append(batch, c.b)
					if len(c.b) >= SpliceCutoff {
						spares = append(spares, c.b)
					}
				}
				live = slices.Delete(live, from, to)
				a.Reclaim(batch)
			case 2:
				n := SpliceCutoff + arg*7
				fill++
				big := &copyOf{bytes.Repeat([]byte{fill}, 2*n), fill}
				fill++
				small := &copyOf{bytes.Repeat([]byte{fill}, 1+arg), fill}
				foreign = append(foreign, big, small)
				a.Reclaim([][]byte{big.b[:n], small.b})
			case 3:
				if len(live) > 0 {
					c := live[arg%len(live)]
					fill++
					c.fill = fill
					for j := range c.b {
						c.b[j] = fill
					}
				}
			}
			if len(a.spares) != len(spares) || len(a.spares)+large() > peak {
				t.Fatalf("step %d: %d spares, the shadow holds %d; %d large copies live, at most %d at once",
					i, len(a.spares), len(spares), large(), peak)
			}
		}
		for _, c := range live {
			if !intact(c) {
				t.Fatal("a live copy changed under its owner")
			}
		}
		for _, c := range foreign {
			if !intact(c) {
				t.Fatal("a foreign buffer was written")
			}
		}
	})
}
