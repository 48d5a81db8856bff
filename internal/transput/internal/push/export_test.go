package push

import (
	"asymstream/internal/transput/internal/core"
	"asymstream/internal/uid"
)

// White-box reads for the external tests of this directory.

func (x *Pusher) Base() int64              { return x.base }
func (x *Pusher) Req() core.DeliverRequest { return x.req }
func (x *Pusher) Writer() uid.UID          { return x.writer }
