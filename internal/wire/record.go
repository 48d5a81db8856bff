package wire

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"
)

// Record is a protocol record: a Marshaler that reads itself back.
// ReadWire fills the record from body — what AppendWire appended, and an
// ItemsMarshaler's items field after it — and returns how many bytes it
// consumed.  owner is the live slab view body lies in, or nil: an items
// field is read with ReadItemsFieldViewInto(dst, b, owner, a), so its
// large items are sub-views of owner if there is one and copies if not,
// and its small ones are copies in a.  Nothing else may alias body.
type Record interface {
	Marshaler
	ReadWire(body, owner []byte, a *Arena) (int, error)
}

// Pool recycles the records of one type.  Get marks the record it hands
// out as the pool's (the record's own pooled field, which mark locates),
// and Put recycles only a marked record, so a second Put of a record, or
// a Put of one a caller built — or of a port's own, reused every
// exchange — is a no-op.  Put readies a record for its next life with
// reset, which empties an item vector and keeps its capacity, or zeroes
// the record if reset is nil.
//
// In a race build Put resets the record on a goroutine the pool owns and
// waits for it there, without ordering the caller after the reset: any
// read or write of the record after its Put, a second Put included, is
// a data race the detector reports, whether or not the record is ever
// reissued.  A later Get is
// ordered after the reset by sync.Pool's own annotations.
type Pool[T any] struct {
	p     sync.Pool
	mark  uintptr // the pooled field's offset in T
	reset func(*T)
	aside *aside // the pool's own goroutine in a race build; nil otherwise
}

// NewPool returns the pool of the records whose mark is mark(r).  mark
// is called once, on a probe record, to find the field's offset; it
// panics if the field does not lie inside the record.
func NewPool[T any](mark func(*T) *bool, reset func(*T)) *Pool[T] {
	probe := new(T)
	at := uintptr(unsafe.Pointer(mark(probe))) - uintptr(unsafe.Pointer(probe))
	if at >= unsafe.Sizeof(*probe) {
		panic(fmt.Sprintf("wire: the pooled mark of %T lies outside the record", probe))
	}
	p := &Pool[T]{mark: at, reset: reset}
	if raceBuild {
		p.aside = newAside(unsafe.Sizeof(*probe), func(r unsafe.Pointer) { p.recycle((*T)(r)) })
	}
	return p
}

// marked is r's pooled field.
func (p *Pool[T]) marked(r *T) *bool {
	return (*bool)(unsafe.Add(unsafe.Pointer(r), p.mark))
}

// Get takes a recycled (or zero) record, marked as the pool's.
func (p *Pool[T]) Get() *T {
	r, _ := p.p.Get().(*T)
	if r == nil {
		r = new(T)
	}
	*p.marked(r) = true
	return r
}

// Put recycles r if the pool issued it.
func (p *Pool[T]) Put(r *T) {
	if !*p.marked(r) {
		return
	}
	if raceBuild {
		p.aside.put(unsafe.Pointer(r))
		return
	}
	p.recycle(r)
}

// recycle resets r, clears its mark and pools it.
func (p *Pool[T]) recycle(r *T) {
	if p.reset != nil {
		p.reset(r)
	} else {
		var zero T
		*r = zero
	}
	*p.marked(r) = false
	p.p.Put(r)
}

// registry maps a record id to its type's decoder.  Register runs from
// package init, before anything decodes, so lookups take no lock.
var registry = make(map[uint16]registration)

type registration struct {
	name    string
	zero    func() Record
	decode  func(body, owner []byte, a *Arena) (any, error)
	recycle func(any)
}

// Register installs record type T, whose records come from pool, under
// its WireID.  It panics on a duplicate id, which would be a build-time
// wiring mistake.  Packages register their records in init; the
// indirection keeps this package free of imports of the packages whose
// records it carries.
func Register[T any, P interface {
	*T
	Record
}](pool *Pool[T]) {
	id := P(new(T)).WireID()
	name := fmt.Sprintf("%T", P(nil))
	if prev, ok := registry[id]; ok {
		panic(fmt.Sprintf("wire: record id %d registered twice (%s, %s)", id, prev.name, name))
	}
	registry[id] = registration{
		name: name,
		zero: func() Record { return P(new(T)) },
		decode: func(body, owner []byte, a *Arena) (any, error) {
			return decodeRecord[T, P](pool, body, owner, a)
		},
		recycle: func(v any) {
			if r, ok := v.(P); ok {
				pool.Put(r)
			}
		},
	}
}

// decodeRecord is every record's decode step: a record from its pool,
// read from body, and handed back if body does not parse or does not end
// where the record does.
func decodeRecord[T any, P interface {
	*T
	Record
}](pool *Pool[T], body, owner []byte, a *Arena) (any, error) {
	r := pool.Get()
	n, err := P(r).ReadWire(body, owner, a)
	if err == nil && n != len(body) {
		err = fmt.Errorf("%w: %d bytes after the record", ErrMalformed, len(body)-n)
	}
	if err != nil {
		// A rejected body's large items may be sub-views of owner by now.
		if pr, ok := any(r).(PayloadReleaser); ok {
			pr.ReleaseWirePayload()
		} else {
			pool.Put(r)
		}
		return nil, err
	}
	return r, nil
}

// Records returns a zero record of every registered type, in id order:
// what a test that covers every record iterates, and a record no pool
// issued to decode into (ReadWire) beside a recycled one.
func Records() []Record {
	ids := make([]uint16, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]Record, len(ids))
	for i, id := range ids {
		out[i] = registry[id].zero()
	}
	return out
}

// Recycle hands a decoded record back to its type's pool, as the record's
// consumer would; any other value is left alone.
func Recycle(v any) {
	if m, ok := v.(Marshaler); ok {
		if r, ok := registry[m.WireID()]; ok {
			r.recycle(v)
		}
	}
}
