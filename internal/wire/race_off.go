//go:build !race

package wire

import "unsafe"

// raceBuild is false outside a race build: Pool.Put resets a record on
// the caller's goroutine.
const raceBuild = false

type aside struct{}

func newAside(uintptr, func(unsafe.Pointer)) *aside { return nil }

func (*aside) put(unsafe.Pointer) {}
