package wire

import (
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
//   - Retain/Release on a live view always succeed, and a view dies
//     exactly when its shadow count hits zero;
//   - RegisterSubview at an interior offset creates a view with a count
//     of its own that outlives its owner, and at the owner's own base
//     (or over a view registered before) adds a handle to that view;
//   - a heap slice, an address inside a chunk that is no view's base and
//     an already-released view are not views to IsView, Retain, Release
//     or Detach, and probing them moves no count;
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
			if IsView(b) || Retain(b) || Release(b) {
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
			case 1: // retain
				if s := pick(arg); s != nil {
					if !Retain(s.view) {
						t.Fatal("Retain on a live view reported non-view")
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
