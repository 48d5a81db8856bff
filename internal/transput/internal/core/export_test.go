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
func (x *ChanPort) Spares() [][][]byte              { return x.spares }
func (x ChanRef) Gen() uint64                       { return x.gen }
func (x *ChanRegistry) SetMintCap(f func() uid.UID) { x.mintCap = f }
func (x *ChanRegistry) Port() *ChanPort             { return &x.port }
func (x *Channel) AbortErr() *itemio.AbortedError   { return x.abortErr }
func (x *Channel) Buf() [][]byte                    { return x.buf }
func (x *Channel) Capacity() int                    { return int(x.capacity) }
func (x *Channel) Ends() int                        { return int(x.ends) }
func (x *Channel) ID() ChannelID                    { return x.id }
func (x *Link) Active() int                         { return x.active }
func (x *Link) GateMu() *sync.Mutex                 { return &x.gateMu }
func (x *Link) Limit() int                          { return x.limit }

// Index is the registry's index, entry by entry, keyed as lookups name
// channels: by capability in capability mode, by number otherwise.
func (x *ChanRegistry) Index() map[ChannelID]ChanRef {
	m := make(map[ChannelID]ChanRef)
	if x.capMode {
		x.byCap.Range(func(k uid.UID, v ChanRef) bool { m[CapChan(k)] = v; return true })
	} else {
		x.byNum.Range(func(k ChannelNum, v ChanRef) bool { m[Chan(k)] = v; return true })
	}
	return m
}

// Waiters is the count of goroutines parked in the record.
func (x *chanCore) Waiters() int {
	if x.side == nil {
		return 0
	}
	return x.side.waiters
}

// Live is the registry's live references.
func (x *ChanRegistry) Live() (refs []ChanRef) {
	x.each(func(ref ChanRef) { refs = append(refs, ref) })
	return refs
}

const CapCacheSlots = capCacheSlots

var IndexEntryBytes = indexEntryBytes
