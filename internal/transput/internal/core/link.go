package core

import (
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/uid"
)

// This file states the active half of the paper's duality once, the way
// channel.go states the passive half.  §5 calls write-only transput "the
// exact dual" of read-only: the same exchange with the initiative
// reversed.  An active port is therefore one windowed exchange loop,
// parameterised by the operation it invokes — that is, by which message
// of the exchange carries the data — and the two active entities are
// faces over it:
//
//	face    operation  data rides   a batch waits for its turn              throttled by
//	InPort  Transfer   the reply    at the port, to be queued               the source's backlog, then the read-ahead queue
//	Pusher  Deliver    the request  at the port for a slot; at the sink     the sink's credits: room in its input channel
//
// Each face's window lands in a buffer: a pull window in the InPort's
// read-ahead queue, a push window in the sink's input channel, which a
// pipeline's walk sizes to hold it.  Where that buffer is smaller than
// the window, the gate below holds the window to what it can take.  The
// sink's channel is the push window's only buffer: a Pusher hands each
// batch straight to a free helper, so its producer blocks once Window
// batches are out.
//
// One order rule serves both: a windowed batch is numbered by its item
// offset (Base), and the goroutine carrying it waits for that offset's
// turn, then moves the turn on by the batch's length.
//
// The link owns what does not depend on that choice: whom the exchanges
// go to, how large and how many at once, the exchange itself with its
// metering, the helper goroutines that keep a window of exchanges in
// flight, the gate that holds that window to what the peer could still
// exchange, the port's turn, the stream's first error, and the abort
// that tells the peer the stream is over.  How many exchanges overlap is
// a matter of who runs them, not of a different implementation: with no
// helper the port's own caller runs each exchange inline (stop-and-wait,
// and with the kernel's caller-runs invocation one goroutine end to
// end); one helper is read-ahead; K helpers are a window of K.

// MaxWindow caps the flow-control window so that parked stream
// invocations can never exhaust an Eject's kernel worker pool (32 by
// default): a windowed port holds at most MaxWindow workers blocked at
// the passive side.
const MaxWindow = 16

// Link is the engine under an active port.
type Link struct {
	Met     *metrics.Set
	caller  *kernel.Caller
	op      string // OpTransfer or OpDeliver
	Peer    uid.UID
	Channel ChannelID
	// Batch is the fixed exchange size.  ctrl, when non-nil, makes it
	// adaptive: the AIMD controller sizes every exchange between the
	// configured bounds.  Bounds that pin the size leave ctrl nil.
	Batch  int
	Ctrl   *batchController
	Window int // exchanges kept in flight, 1..MaxWindow

	Issued   atomic.Int64
	inflight atomic.Int64 // exchanges on the wire right now (window > 1)

	Helpers sync.WaitGroup
	left    atomic.Int32 // helpers of the current start still running

	// The window gate (window > 1; nil gateCond otherwise).  Every reply
	// carries a grant — what the peer could still exchange once it had
	// served this one: free space after a Deliver (DeliverReply.Credits),
	// backlog after a Transfer (TransferReply.Backlog) — and the window
	// keeps 1 + grant/size exchanges at the peer, at most window.  More
	// would each park a kernel worker at a full sink, or split one refill
	// of a drained source into that many partial replies; the one always
	// allowed is how the limit is learned again, and the only worker a
	// stalled peer holds.  active counts the exchanges holding a slot;
	// shut says the stream is over or the helpers detached, and empties
	// the gate.
	gateMu   sync.Mutex
	gateCond *sync.Cond
	active   int
	limit    int
	shut     bool

	// turn is the item offset of the next batch to pass the port: a
	// reply on its way to the read-ahead queue, a Deliver on its way to a
	// slot.  held counts the carriers parked for theirs.
	turn int64
	held int

	// err is the stream's first failure, nil while it has none.  Helpers
	// set it and every Put reads it, under no lock of the port's.
	err atomic.Pointer[error]
}

// Init resolves an active port's configuration.  self identifies the
// invoking Eject (uid.Nil for external drivers such as device pumps or
// tests); peer and channel name the stream's passive end.
func (l *Link) Init(k *kernel.Kernel, self, peer uid.UID, channel ChannelID, op string, batch, batchMin, batchMax, window int) {
	if k == nil {
		panic("transput: an active port requires a kernel")
	}
	l.Met = k.Metrics()
	l.caller = k.Caller(self)
	l.op, l.Peer, l.Channel = op, peer, channel
	l.Ctrl, l.Batch = NewBatchController(batch, batchMin, batchMax, &l.Met.BatchSizeHighWater)
	l.Window = min(max(window, 1), MaxWindow)
	if l.Window > 1 {
		l.gateCond = sync.NewCond(&l.gateMu)
		l.limit = l.Window
	}
}

// Size is the exchange size in force: the Max of the next Transfer, the
// batch a Deliver fills toward.
func (l *Link) Size() int {
	if l.Ctrl != nil {
		return l.Ctrl.next()
	}
	return l.Batch
}

// OpenGate readies the gate for a new set of helpers: the whole window,
// until the peer's first reply says otherwise, and the turn at from, the
// offset of the first batch they carry.  None of the last set may still
// be running.
func (l *Link) OpenGate(from int64) {
	l.gateMu.Lock()
	l.limit, l.shut, l.turn = l.Window, false, from
	l.gateMu.Unlock()
}

// Enter takes a slot at the gate for one exchange, parking the helper
// while the limit's worth are at the peer.  It reports false, and takes
// nothing, once the gate is shut.
func (l *Link) Enter() bool {
	l.gateMu.Lock()
	defer l.gateMu.Unlock()
	for parked := false; l.active >= l.limit && !l.shut; parked = true {
		if !parked {
			l.Met.WindowGateStalls.Inc()
		}
		l.gateCond.Wait()
	}
	if l.shut {
		return false
	}
	l.active++
	return true
}

// Leave gives the slot back when its exchange has returned, and sets
// the limit from the grant the reply carried; a negative grant (the
// exchange failed, or ended the stream) leaves the limit alone.
func (l *Link) Leave(grant int) {
	l.gateMu.Lock()
	l.active--
	if grant >= 0 {
		l.limit = min(l.Window, 1+grant/l.Size())
	}
	l.gateCond.Broadcast()
	l.gateMu.Unlock()
}

// AwaitTurn parks the carrier of the batch at offset base until base is
// the turn, counted on MergeReorderHighWater while it waits.  Only the
// batch before it passing, or the stream failing, releases it — not the
// end of the stream, which a reply can report while the last data is
// still behind it.  It reports false, the turn not taken, once the
// stream has failed.
func (l *Link) AwaitTurn(base int64) bool {
	l.gateMu.Lock()
	defer l.gateMu.Unlock()
	if l.turn < base && l.Failed() == nil {
		l.held++
		l.Met.MergeReorderHighWater.Observe(int64(l.held))
		for l.turn < base && l.Failed() == nil {
			l.gateCond.Wait()
		}
		l.held--
	}
	return l.Failed() == nil
}

// Pass moves the turn on past a batch of n items.
func (l *Link) Pass(n int) {
	l.gateMu.Lock()
	l.turn += int64(n)
	l.gateCond.Broadcast()
	l.gateMu.Unlock()
}

// ShutGate empties the gate: helpers parked at it leave, and enter
// refuses until the next openGate.
func (l *Link) ShutGate() {
	l.gateMu.Lock()
	l.shut = true
	l.gateCond.Broadcast()
	l.gateMu.Unlock()
}

// A fixed-size link stamps one exchange in stampEvery: at one in 16 the
// two clock reads and the histogram's shared line cost pull-local-b1 3 %
// of its throughput on 2 vCPUs.  A stamp is time.Since(epoch), which
// reads the monotonic clock only.
const stampEvery = 64

var epoch = time.Now()

// Exchange issues one synchronous invocation of the link's operation
// and returns the peer's reply with its round trip, recorded on
// Met.ExchangeRTT: every exchange of an adaptive link, whose controller
// wants it, and every stampEvery-th of a fixed-size one (0 for the
// rest).  Every caller blocks for its reply: a window is several
// callers, never an asynchronous invocation.
func (l *Link) Exchange(req any) (any, time.Duration, error) {
	var start time.Duration
	stamped := l.Issued.Add(1)%stampEvery == 0 || l.Ctrl != nil
	if stamped {
		start = time.Since(epoch)
	}
	if l.Window > 1 {
		l.Met.WindowDepthHighWater.Observe(l.inflight.Add(1))
	}
	raw, err := l.caller.Invoke(l.Peer, l.op, req)
	if l.Window > 1 {
		l.inflight.Add(-1)
	}
	var rtt time.Duration
	if stamped && err == nil {
		rtt = time.Since(epoch) - start
		l.Met.ExchangeRTT.Record(int64(rtt))
	}
	return raw, rtt, err
}

// Settle feeds a completed exchange to the controller: rtt is its round
// trip, asked the size it aimed for, got how many items it moved.
func (l *Link) Settle(rtt time.Duration, asked, got int) {
	if l.Ctrl != nil && got > 0 {
		l.Ctrl.record(asked, got, rtt)
	}
}

// Start launches n helper goroutines, each running body until it
// returns; the last one out runs then (nil for nothing).  Whoever ends
// the stream waits on helpers, and only then may start again.
func (l *Link) Start(n int, body func(), then func()) {
	l.left.Store(int32(n))
	l.Helpers.Add(n)
	for range n {
		go func() {
			defer l.Helpers.Done()
			body()
			if l.left.Add(-1) == 0 && then != nil {
				then()
			}
		}()
	}
}

// Fail records the stream's failure; the first one sticks, and wakes
// the carriers parked for their turn.
func (l *Link) Fail(err error) {
	if l.err.CompareAndSwap(nil, &err) && l.gateCond != nil {
		l.gateMu.Lock()
		l.gateCond.Broadcast()
		l.gateMu.Unlock()
	}
}

// Failed returns the stream's failure, if any.
func (l *Link) Failed() error {
	if e := l.err.Load(); e != nil {
		return *e
	}
	return nil
}

// Retarget points the link at a new stream, which starts unfailed.  No
// exchange may be in flight.
func (l *Link) Retarget(peer uid.UID, channel ChannelID) {
	l.Peer, l.Channel = peer, channel
	l.err.Store(nil)
}

// Abort tells the peer the stream is over, waking whatever is parked on
// the channel there — this port's own in-flight exchanges included.
func (l *Link) Abort(msg string) error {
	_, err := l.caller.Invoke(l.Peer, OpAbort, &AbortRequest{Channel: l.Channel, Msg: msg})
	return err
}
