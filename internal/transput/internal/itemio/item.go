// Package itemio is what every stage body and every face shares and
// nothing else: the item interfaces, Body, the stream errors, the copy a
// copying Put makes, and the fused edge that composes two bodies without
// a port.  It imports neither the kernel nor a face.
package itemio

import (
	"errors"

	"asymstream/internal/wire"
)

// ItemReader is the discipline-neutral consumer interface.  Filters
// are written against ItemReader/ItemWriter so the same filter code
// runs under the read-only, write-only and conventional disciplines —
// mirroring the paper's point that the discipline is a property of the
// *inter-Eject interfaces*, not of the filter's logic.
//
// Next returns the next stream item.  At end of stream it returns
// (nil, io.EOF).  Items are owned by the caller.
type ItemReader interface {
	Next() ([]byte, error)
}

// ItemWriter is the discipline-neutral producer interface.  Put may
// block: in the read-only discipline that is the bounded anticipatory
// buffer filling up; in the write-only and conventional disciplines it
// is downstream back pressure.  Close marks normal end of stream;
// CloseWithError(err) (err != nil) aborts it.
type ItemWriter interface {
	Put(item []byte) error
	Close() error
	CloseWithError(err error) error
}

// OwnedItemWriter is implemented by writers that can take ownership of
// the item slice itself, skipping the defensive copy Put makes.  The
// caller must not retain or mutate item after PutOwned returns;
// ownership transfers even when PutOwned fails (the writer releases a
// dropped slab view).
type OwnedItemWriter interface {
	ItemWriter
	PutOwned(item []byte) error
}

// CopyItem is the copy every copying Put makes (wire.Arena: small items
// share a heap block, so a datum is not an allocation), into the
// writer's arena, which the writer's first copy creates — a writer that
// never copies holds none.  The caller serialises it with the rest of
// its Put.
func CopyItem(a **wire.Arena, item []byte) []byte {
	if *a == nil {
		*a = new(wire.Arena)
	}
	return (*a).Copy(item)
}

// PutOwned hands item to w with ownership transfer when w supports it.
// Otherwise it falls back to the copying Put and releases item's slab
// view (if it is one) on the caller's behalf — the caller has given the
// item up either way.
func PutOwned(w ItemWriter, item []byte) error {
	if ow, ok := w.(OwnedItemWriter); ok {
		return ow.PutOwned(item)
	}
	err := w.Put(item)
	wire.Release(item)
	return err
}

// Body is the discipline-neutral code of a stage: it consumes items
// from its input readers (ins[0] is the primary input) and produces
// items on its output writers (outs[0] is the primary output).  The
// same Body runs unchanged under all three disciplines, demonstrating
// the paper's point that the discipline is a property of the
// *inter-Eject interfaces*: "The filter process itself would be
// programmed in the conventional way and make use of the Write
// operations whenever necessary" (§4).
//
// A Body must return when its inputs are exhausted or its outputs
// fail; it need not close its writers — the stage harness does that,
// propagating errors as aborts.
type Body func(ins []ItemReader, outs []ItemWriter) error

// Errors every stream surfaces.
var (
	// ErrAborted corresponds to StatusAborted; Abort's message rides
	// along in AbortedError.
	ErrAborted = errors.New("transput: stream aborted")
	// ErrClosed is returned by writes to a closed channel writer.
	ErrClosed = errors.New("transput: channel closed")
)

// AbortedError carries the abort reason downstream.
type AbortedError struct{ Msg string }

// Error implements the error interface.
func (e *AbortedError) Error() string {
	if e.Msg == "" {
		return ErrAborted.Error()
	}
	return "transput: stream aborted: " + e.Msg
}

// Unwrap makes errors.Is(err, ErrAborted) work.
func (e *AbortedError) Unwrap() error { return ErrAborted }
