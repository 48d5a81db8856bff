package pull

import (
	"sync"

	"asymstream/internal/transput/internal/core"
)

// White-box reads for the external tests of this directory.

func (x *InPort) Head() int                   { return x.head }
func (x *InPort) Mu() *sync.Mutex             { return &x.mu }
func (x *InPort) Pending() [][]byte           { return x.pending }
func (x *InPort) Req() core.TransferRequest   { return x.req }
func (x *InPort) AbsorbLocked(items [][]byte) { x.absorbLocked(pulled{items: items}) }

const PendingKeep = pendingKeep
