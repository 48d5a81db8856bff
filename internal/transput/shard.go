package transput

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"asymstream/internal/metrics"
	"asymstream/internal/wire"

	"asymstream/internal/transput/internal/itemio"
)

// Stage sharding — the parallel stream engine's fan-out/fan-in layer.
//
// A sharded filter is P replicas of one Body running as P shard
// Ejects.  The upstream stage's primary output is wrapped in a
// shardSplitter that deals items round-robin across P links, tagging
// each with a global sequence number; each shard processes its share
// and attributes every output to the input's sequence number; the
// downstream stage reads through a shardMerger that reassembles global
// order.  The result is indistinguishable from the sequential run for
// any per-item body (k outputs per input, k >= 0) — see DESIGN.md §7
// for the argument, including why the paper's per-datum invocation
// counts are preserved (one frame is one wire item).
//
// Frames.  Every item on a sharded link is a frame:
//
//	[ class:1 ][ seq:8 big-endian ][ payload ]
//
// Three classes exist.  A data frame carries one output item
// attributed to input seq.  A punctuation frame carries no payload and
// records that its shard consumed input seq without producing output —
// the merger needs it for liveness: without punctuation, a sparse
// filter's silent shard could leave the merger (and, transitively, the
// splitter, on bounded buffers) waiting forever.  An epilogue frame
// carries an output written after the shard's input was exhausted;
// epilogues sort after all data, in link order.
//
// Sequence discipline: the splitter assigns seq s to link s mod P, and
// a shard emits frames with strictly non-decreasing seqs (it consumes
// its input in order).  The merger exploits both facts: the next
// expected seq lives on a known link, and a frame with a larger seq on
// that link proves the expected seq will never produce output.

const (
	frameData     byte = 1
	framePunct    byte = 2
	frameEpilogue byte = 3
)

const frameHeader = 9 // class byte + 8-byte seq

// appendFrame encodes a frame into dst (reusing its capacity).
func appendFrame(dst []byte, class byte, seq uint64, payload []byte) []byte {
	dst = append(dst[:0], class)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], seq)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// allocFrame builds a frame in a refcounted slab view (or an ordinary
// heap slice when slab is nil — unit tests without a pipeline).  The
// caller owns the returned view and hands it off with PutOwned, so the
// frame crosses every link of the pipeline without being copied again.
func allocFrame(slab *wire.Slab, class byte, seq uint64, payload []byte) []byte {
	n := frameHeader + len(payload)
	var f []byte
	if slab != nil {
		f = slab.Alloc(n)
	} else {
		f = make([]byte, n)
	}
	f[0] = class
	binary.BigEndian.PutUint64(f[1:frameHeader], seq)
	copy(f[frameHeader:], payload)
	return f
}

// detachPayload returns a frame's payload as an independently owned
// slice: the ItemReader contract gives callers (user bodies, collecting
// sinks) outright ownership, which a recyclable view cannot provide.
// The frame goes through wire.Detach's rule, so a large frame that is
// the caller's last handle is handed over in place and any other view
// is copied — the one copy per item the sharded data plane pays, and
// none for a large one.
func detachPayload(frame []byte) []byte {
	return wire.Detach(frame)[frameHeader:]
}

// decodeFrame reads a frame's header.  The payload is item[frameHeader:].
func decodeFrame(item []byte) (class byte, seq uint64, err error) {
	if len(item) < frameHeader {
		return 0, 0, fmt.Errorf("transput: malformed shard frame (%d bytes)", len(item))
	}
	return item[0], binary.BigEndian.Uint64(item[1:frameHeader]), nil
}

// shardSplitter is an ItemWriter that deals items round-robin across P
// links as data frames.  It runs inside a single stage body goroutine,
// so it needs no locking.  Close/CloseWithError fan out to every link.
type shardSplitter struct {
	ws   []ItemWriter
	met  *metrics.Set
	slab *wire.Slab // frame arena; nil falls back to per-frame heap slices
	seq  uint64
}

// newShardSplitter wraps P link writers.
func newShardSplitter(met *metrics.Set, slab *wire.Slab, ws []ItemWriter) *shardSplitter {
	return &shardSplitter{ws: ws, met: met, slab: slab}
}

// Put frames the item and deals it to link seq mod P.  The frame is a
// refcounted slab view handed to the link by ownership transfer, so it
// is built exactly once and never copied on the way to the shard.
func (s *shardSplitter) Put(item []byte) error {
	w := s.ws[int(s.seq%uint64(len(s.ws)))]
	f := allocFrame(s.slab, frameData, s.seq, item)
	s.seq++
	s.met.ShardFrames.Inc()
	return PutOwned(w, f)
}

// Close closes every link, returning the first error.
func (s *shardSplitter) Close() error {
	var first error
	for _, w := range s.ws {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CloseWithError aborts every link, returning the first error.
func (s *shardSplitter) CloseWithError(err error) error {
	var first error
	for _, w := range s.ws {
		if e := w.CloseWithError(err); e != nil && first == nil {
			first = e
		}
	}
	return first
}

var _ ItemWriter = (*shardSplitter)(nil)

// splitBody wraps a stage body so that its primary output is dealt
// across the stage's (multiple) underlying output writers.  The body
// sees a single outs[0]; secondary outputs are not supported on a
// sharded link.
func splitBody(met *metrics.Set, slab *wire.Slab, body Body) Body {
	return func(ins []ItemReader, outs []ItemWriter) error {
		return body(ins, []ItemWriter{newShardSplitter(met, slab, outs)})
	}
}

// shardIO is the per-shard frame adapter: the reader half decodes
// input frames and tracks attribution state; the writer half encodes
// the body's outputs against that state.  One shardIO is shared by the
// reader and writer of one shard body invocation (single goroutine).
type shardIO struct {
	in   ItemReader
	out  ItemWriter
	met  *metrics.Set
	slab *wire.Slab    // frame arena; nil falls back to per-frame heap slices
	load *atomic.Int64 // data frames consumed by this shard (utilization)

	cur     uint64 // seq of the last consumed input frame
	started bool   // consumed at least one data frame
	wrote   bool   // emitted >=1 frame attributed to cur
	eof     bool   // input exhausted
	epiIn   bool   // current input came from an epilogue frame

	pre   [][]byte    // outputs produced before any input was consumed
	arena *wire.Arena // pre's copies; set by the first, dropped with pre
}

// emit frames one payload onto the output link by ownership transfer.
func (s *shardIO) emit(class byte, seq uint64, payload []byte) error {
	f := allocFrame(s.slab, class, seq, payload)
	s.met.ShardFrames.Inc()
	return PutOwned(s.out, f)
}

// punct records that seq produced no output (merger liveness).
func (s *shardIO) punct(seq uint64) error { return s.emit(framePunct, seq, nil) }

// flushPre attributes any buffered pre-input outputs to the first
// consumed frame, emitting them ahead of that frame's own outputs.
func (s *shardIO) flushPre(class byte, seq uint64) error {
	for _, item := range s.pre {
		if err := s.emit(class, seq, item); err != nil {
			return err
		}
		s.wrote = true
	}
	s.pre, s.arena = nil, nil
	return nil
}

// shardReader is the ItemReader handed to the body.
type shardReader struct{ s *shardIO }

func (r *shardReader) Next() ([]byte, error) {
	s := r.s
	// Before advancing, settle the previous input's account: a data
	// frame that produced nothing owes the merger a punctuation.
	if s.started && !s.wrote && !s.epiIn {
		if err := s.punct(s.cur); err != nil {
			return nil, err
		}
		s.wrote = true
	}
	for {
		item, err := s.in.Next()
		if err == io.EOF {
			s.eof = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		class, seq, derr := decodeFrame(item)
		if derr != nil {
			wire.Release(item)
			return nil, derr
		}
		switch class {
		case framePunct:
			// A predecessor shard's punctuation passes through intact
			// (ownership and all): it still proves progress on this
			// sub-stream downstream.
			s.met.ShardFrames.Inc()
			if err := PutOwned(s.out, item); err != nil {
				return nil, err
			}
		case frameEpilogue:
			s.epiIn = true
			s.cur, s.wrote = seq, false
			if err := s.flushPre(frameEpilogue, seq); err != nil {
				wire.Release(item)
				return nil, err
			}
			return detachPayload(item), nil
		default:
			s.epiIn = false
			s.cur, s.started, s.wrote = seq, true, false
			if s.load != nil {
				s.load.Add(1)
			}
			if err := s.flushPre(frameData, seq); err != nil {
				wire.Release(item)
				return nil, err
			}
			return detachPayload(item), nil
		}
	}
}

// Cancel forwards early exit to the underlying link.
func (r *shardReader) Cancel(msg string) {
	if c, ok := r.s.in.(streamCanceller); ok {
		c.Cancel(msg)
	}
}

// shardWriter is the ItemWriter handed to the body.
type shardWriter struct{ s *shardIO }

func (w *shardWriter) Put(item []byte) error {
	s := w.s
	switch {
	case s.eof || s.epiIn:
		// Output after (or attributed to) end of input: epilogue.
		return s.emit(frameEpilogue, s.cur, item)
	case !s.started:
		// Output before any input: held until attribution is known.
		s.pre = append(s.pre, itemio.CopyItem(&s.arena, item))
		return nil
	default:
		if err := s.emit(frameData, s.cur, item); err != nil {
			return err
		}
		s.wrote = true
		return nil
	}
}

// Close and CloseWithError are no-ops: the shard stage harness closes
// the underlying link writer after the wrapped body (and its trailing
// bookkeeping) finish.
func (w *shardWriter) Close() error               { return nil }
func (w *shardWriter) CloseWithError(error) error { return nil }

// shardBody wraps a user body for execution as one shard: input frames
// are decoded, outputs are framed with attribution, and the invariant
// "every consumed data frame yields at least one frame" is enforced.
//
// Sharding is exact for per-item bodies (each output a function of the
// current input).  A body carrying state *across* items (sort, uniq,
// wc) computes per-shard results; such filters should not be sharded.
func shardBody(met *metrics.Set, slab *wire.Slab, load *atomic.Int64, body Body) Body {
	return func(ins []ItemReader, outs []ItemWriter) error {
		s := &shardIO{in: ins[0], out: outs[0], met: met, slab: slab, load: load}
		err := body([]ItemReader{&shardReader{s}}, []ItemWriter{&shardWriter{s}})
		if err != nil {
			return err
		}
		// Settle the final input's account (the body may have returned
		// without reading to EOF).
		if s.started && !s.wrote && !s.epiIn {
			if err := s.punct(s.cur); err != nil {
				return err
			}
		}
		// A body that never consumed input flushes its held outputs as
		// epilogues (they have no seq to attach to).
		for _, item := range s.pre {
			if err := s.emit(frameEpilogue, 0, item); err != nil {
				return err
			}
		}
		s.pre = nil
		return nil
	}
}

// streamCanceller is the early-exit surface shared by the readers a
// merger can sit on (InPort, ChannelReader).
type streamCanceller interface{ Cancel(string) }

// shardMerger is an ItemReader that reassembles the global stream from
// P shard links.  It walks the expected sequence: seq s lives on link
// s mod P, so the merger reads that link's frames — emitting data,
// absorbing punctuation, stashing epilogues — until the link's head
// seq passes s, then advances.  A link at EOF contributes nothing
// further and its seqs are skipped.  When every link has ended, the
// stashed epilogues drain in link order, then io.EOF.
//
// Exactly one frame-read per link is ever buffered (the stash), plus
// the ready queue of decoded payloads for the current seq — the
// reorder footprint is O(P), reported on MergeReorderHighWater.
type shardMerger struct {
	links []ItemReader
	met   *metrics.Set

	next    uint64 // next expected data seq
	stash   []stashedFrame
	done    []bool
	nDone   int
	queue   [][]byte // payloads ready to surface
	qHead   int
	epis    [][][]byte // per-link epilogue payloads
	epiDone bool
	err     error
}

// stashedFrame is a link's read-ahead of one frame.
type stashedFrame struct {
	valid   bool
	class   byte
	seq     uint64
	payload []byte
}

// newShardMerger wraps P link readers.
func newShardMerger(met *metrics.Set, links []ItemReader) *shardMerger {
	return &shardMerger{
		links: links,
		met:   met,
		stash: make([]stashedFrame, len(links)),
		done:  make([]bool, len(links)),
		epis:  make([][][]byte, len(links)),
	}
}

// Next returns the next item in global stream order.
func (m *shardMerger) Next() ([]byte, error) {
	for {
		if m.qHead < len(m.queue) {
			item := m.queue[m.qHead]
			m.queue[m.qHead] = nil
			m.qHead++
			return item, nil
		}
		m.queue = m.queue[:0]
		m.qHead = 0
		if m.err != nil {
			return nil, m.err
		}
		if m.nDone == len(m.links) {
			if !m.epiDone {
				m.epiDone = true
				for i := range m.epis {
					m.queue = append(m.queue, m.epis[i]...)
					m.epis[i] = nil
				}
				if len(m.queue) > 0 {
					continue
				}
			}
			return nil, io.EOF
		}
		l := int(m.next % uint64(len(m.links)))
		if m.done[l] {
			m.next++
			continue
		}
		f, ok, err := m.head(l)
		if err != nil {
			m.fail(err)
			return nil, err
		}
		if !ok { // link EOF
			continue
		}
		switch f.class {
		case frameEpilogue:
			m.epis[l] = append(m.epis[l], f.payload)
			m.observeDepth()
			continue // keep reading the same link
		case framePunct:
			switch {
			case f.seq == m.next:
				m.next++ // consumed, no output
			case f.seq > m.next:
				// The link skipped past the expected seq (its frames
				// were consumed by a predecessor shard row); stash and
				// advance.
				m.stash[l] = f
				m.stash[l].valid = true
				m.next++
			default:
				m.fail(fmt.Errorf("transput: shard merge saw stale punct seq %d (expected >= %d)", f.seq, m.next))
				return nil, m.err
			}
		default: // frameData
			switch {
			case f.seq == m.next:
				// Emit, and keep draining this seq's frames (an
				// expanding body emits several per input).
				m.queue = append(m.queue, f.payload)
				m.observeDepth()
			case f.seq > m.next:
				m.stash[l] = f
				m.stash[l].valid = true
				m.next++
				m.observeDepth()
			default:
				m.fail(fmt.Errorf("transput: shard merge saw stale data seq %d (expected >= %d)", f.seq, m.next))
				return nil, m.err
			}
		}
	}
}

// head returns link l's next frame, consuming the stash first.  ok is
// false at link EOF (done[l] is then set).
func (m *shardMerger) head(l int) (stashedFrame, bool, error) {
	if m.stash[l].valid {
		f := m.stash[l]
		m.stash[l] = stashedFrame{}
		return f, true, nil
	}
	item, err := m.links[l].Next()
	if err == io.EOF {
		m.done[l] = true
		m.nDone++
		return stashedFrame{}, false, nil
	}
	if err != nil {
		return stashedFrame{}, false, err
	}
	class, seq, derr := decodeFrame(item)
	if derr != nil {
		wire.Release(item)
		return stashedFrame{}, false, derr
	}
	// Detach here: the payload may sit in the stash or ready queue for
	// a while, and the surfaced items belong to the consuming body.
	return stashedFrame{class: class, seq: seq, payload: detachPayload(item)}, true, nil
}

// observeDepth reports the reorder footprint to the metric set.
func (m *shardMerger) observeDepth() {
	n := len(m.queue) - m.qHead
	for i := range m.stash {
		if m.stash[i].valid {
			n++
		}
	}
	for i := range m.epis {
		n += len(m.epis[i])
	}
	m.met.MergeReorderHighWater.Observe(int64(n))
}

// fail latches the first error and cancels every link so sibling
// shards (and, transitively, the splitter) unwind.
func (m *shardMerger) fail(err error) {
	if m.err != nil {
		return
	}
	m.err = err
	m.Cancel(err.Error())
}

// Cancel aborts every link (early exit by the consumer).  Arrived data
// already surfaced through Next is unaffected.
func (m *shardMerger) Cancel(msg string) {
	for _, l := range m.links {
		if c, ok := l.(streamCanceller); ok {
			c.Cancel(msg)
		}
	}
}

var _ ItemReader = (*shardMerger)(nil)

// mergeBody wraps a stage body so that it consumes the global stream
// reassembled from the stage's (multiple) underlying input readers.
func mergeBody(met *metrics.Set, body Body) Body {
	return func(ins []ItemReader, outs []ItemWriter) error {
		return body([]ItemReader{newShardMerger(met, ins)}, outs)
	}
}
