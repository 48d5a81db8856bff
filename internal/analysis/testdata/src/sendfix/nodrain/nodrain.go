// Package nodrain exercises sendown's structural rule: a package that
// enqueues frames into a coalescer queue but contains no drain loop
// leaks them by construction.
package nodrain

import (
	"sync"

	"asymstream/internal/wire"
)

type sink struct {
	mu     sync.Mutex
	owners []*wire.Frame
}

func (s *sink) push(payload []byte) {
	buf := wire.GetFrame()
	buf.Buf = append(buf.Buf[:0], payload...)
	s.mu.Lock()
	s.owners = append(s.owners, buf) // want "no drain loop in this package"
	s.mu.Unlock()
}
