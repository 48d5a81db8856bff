package core

import (
	"sync"
	"sync/atomic"

	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/uid"
)

// White-box reads for the external tests of this directory, which drive
// the record, the table and the engine through the faces.

func (x *chanCore) Gen() *atomic.Uint64             { return &x.gen }
func (x *chanCore) Waiters() int                    { return x.waiters }
func (x *ChanPort) Spares() [][][]byte              { return x.spares }
func (x ChanRef) Gen() uint64                       { return x.gen }
func (x *ChanRegistry) Chans() []ChanRef            { return x.chans }
func (x *ChanRegistry) Live() []ChanRef             { return x.live() }
func (x *ChanRegistry) SetMintCap(f func() uid.UID) { x.mintCap = f }
func (x *ChanRegistry) Port() *ChanPort             { return &x.port }
func (x *Channel) AbortErr() *itemio.AbortedError   { return x.abortErr }
func (x *Channel) Buf() [][]byte                    { return x.buf }
func (x *Channel) Capacity() int                    { return x.capacity }
func (x *Channel) Ends() int                        { return x.ends }
func (x *Channel) ID() ChannelID                    { return x.id }
func (x *Link) Active() int                         { return x.active }
func (x *Link) GateMu() *sync.Mutex                 { return &x.gateMu }
func (x *Link) Limit() int                          { return x.limit }

const CapCacheSlots = capCacheSlots

var IndexEntryBytes = indexEntryBytes
