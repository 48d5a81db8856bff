package kernel

import (
	"errors"
	"fmt"

	"asymstream/internal/netsim"
)

// Sentinel errors returned by kernel operations.  They are compared
// with errors.Is; RemoteError wraps them across simulated node
// boundaries.
var (
	// ErrNoSuchEject means the target UID names no Eject: it was never
	// created, or it deactivated without checkpointing and so, per §7,
	// "disappears".
	ErrNoSuchEject = errors.New("kernel: no such Eject")
	// ErrNoSuchOperation is returned by Ejects for unknown op names.
	ErrNoSuchOperation = errors.New("kernel: no such operation")
	// ErrNoReply means the Eject's Serve returned without replying.
	ErrNoReply = errors.New("kernel: Eject did not reply")
	// ErrDeactivated means the invocation was queued when its target
	// deactivated; the caller may retry (the kernel will re-activate).
	ErrDeactivated = errors.New("kernel: Eject deactivated with invocation pending")
	// ErrKernelDown is returned after Shutdown.
	ErrKernelDown = errors.New("kernel: shut down")
	// ErrNotCheckpointable is returned by Checkpoint when the Eject
	// does not implement Checkpointer.
	ErrNotCheckpointable = errors.New("kernel: Eject has no passive representation")
	// ErrUnknownType is returned on activation when no ActivateFunc is
	// registered for the stored Eden type.
	ErrUnknownType = errors.New("kernel: unregistered Eden type")
)

// RemoteError is the wire form of an error that crossed a node or
// process boundary.  Error identity (errors.Is against a sentinel in
// the code table) is preserved via the Code field.
type RemoteError struct {
	Code string // sentinel name, or "" for ad-hoc errors
	Msg  string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return e.Msg }

type codeRow struct {
	code string
	err  error
}

// sentinels is the code table: every sentinel whose identity survives a
// boundary, under its wire code (RegisterError adds rows).  codeFor tries
// the rows in order, and Unwrap maps a code back to its row's sentinel.
var sentinels = []codeRow{
	{"no_such_eject", ErrNoSuchEject},
	{"no_such_operation", ErrNoSuchOperation},
	{"no_reply", ErrNoReply},
	{"deactivated", ErrDeactivated},
	{"kernel_down", ErrKernelDown},
	{"not_checkpointable", ErrNotCheckpointable},
	{"unknown_type", ErrUnknownType},
	{"net_dropped", netsim.ErrDropped},
	{"net_partitioned", netsim.ErrPartitioned},
}

// RegisterError adds err's row to the code table.  The package that owns
// err calls it from its init function; an empty or taken code panics.
func RegisterError(code string, err error) {
	if code == "" || (&RemoteError{Code: code}).Unwrap() != nil {
		panic(fmt.Sprintf("kernel: error code %q is empty or taken", code))
	}
	sentinels = append(sentinels, codeRow{code, err})
}

// codeFor is the wire code of err's first sentinel in the table, or "".
func codeFor(err error) string {
	for _, s := range sentinels {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return ""
}

// Unwrap lets errors.Is recognise the sentinel behind a RemoteError.
func (e *RemoteError) Unwrap() error {
	for _, s := range sentinels {
		if s.code == e.Code {
			return s.err
		}
	}
	return nil
}

// ToWire converts err to its wire form, the one conversion at every
// crossing: a node's inside a kernel, a process's on the bridge.
func ToWire(err error) *RemoteError {
	if err == nil {
		return nil
	}
	if re, ok := err.(*RemoteError); ok {
		return re
	}
	return &RemoteError{Code: codeFor(err), Msg: err.Error()}
}

// OpError decorates a kernel error with the op and target that caused
// it, for diagnostics at pipeline level.
type OpError struct {
	Op     string
	Target string
	Err    error
}

// Error implements the error interface.
func (e *OpError) Error() string {
	return fmt.Sprintf("kernel: invoke %q on %s: %v", e.Op, e.Target, e.Err)
}

// Unwrap exposes the underlying kernel error to errors.Is/As.
func (e *OpError) Unwrap() error { return e.Err }
