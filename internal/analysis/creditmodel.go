package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// An explicit-state model of the windowed credit protocol between
// a windowed Pusher (the K-helper sender) and WOInPort (the passive
// sink with a bounded buffer, a per-writer turn, and credit-carrying
// DeliverReply).  Both ends' turns are item offsets; the model's jobs
// carry one item each, so a job's index is its offset.  protomodel.go extracts the protocol
// shape from the real source (the 1+credits/bsz floor, the strict
// active<limit gate, the abortErr escape in the sink's wait loops, the
// abort-drains-backlog rule) into a modelParams, and this file
// exhaustively explores every interleaving of the resulting transition
// system, proving four invariants:
//
//   I1  credit/item conservation — every produced item is exactly one
//       of: queued, on the wire, buffered at the sink, consumed, or
//       accounted dropped (ledger, checked at every state);
//   I2  the window is never exceeded: active <= limit <= window;
//   I3  no quiescent state with undelivered data — a state with no
//       enabled transition must be a completed stream (all jobs
//       resolved, nothing in flight) — a stall here is the lost-credit
//       deadlock class;
//   I4  abort always drains: an aborted terminal state has an empty
//       sink buffer (no stranded slab views).
//
// The model is deliberately small and faithful rather than big and
// approximate: jobs of one item, batch size one (so limit =
// floor + credits), one abort event, P independent writers sharing the
// sink buffer.  Each writer sends Window data jobs and then an End
// job, which saturates the window and exercises the credit floor at
// every buffer occupancy.
//
// Mutants (creditMutant) re-break the model the way the real code
// would break, for the seeded-detection gate: the selftest proves the
// checker still catches each class before vet trusts its zero-finding
// run.

// modelParams parameterises the transition system.  The boolean
// fields are the shapes protomodel extracts; a correct tree yields the
// zero-risk configuration (all true).
type modelParams struct {
	Window  int // K: sender workers / max in-flight Delivers
	Writers int // P: concurrent writers into one sink channel
	Cap     int // sink buffer capacity, in items

	// FloorOne: the credit rule keeps limit >= 1 ("never stall
	// completely, so the next reply can raise the limit again").
	FloorOne bool
	// ClampWin: the credit rule clamps limit to the window.
	ClampWin bool
	// StrictGate: a wire slot needs active < limit (not <=).
	StrictGate bool
	// AbortWakes: the sink's seq-gate and capacity waits re-check
	// abortErr, so parked deliveries drain on abort.
	AbortWakes bool
	// AbortDrain: abort drops the sink backlog (releases buffered
	// items) instead of stranding it.
	AbortDrain bool
	// WithAbort explores the abort interleaving at all.
	WithAbort bool
}

// defaultModelParams is the correct-protocol configuration at the
// in-gate bound (K=4, P=2).
func defaultModelParams(window, writers int) modelParams {
	return modelParams{
		Window: window, Writers: writers, Cap: 2,
		FloorOne: true, ClampWin: true, StrictGate: true,
		AbortWakes: true, AbortDrain: true, WithAbort: true,
	}
}

// creditMutant seeds a deliberate protocol break.
type creditMutant int

const (
	MutantNone creditMutant = iota
	// MutantDropCreditGrant removes the limit floor: a zero-credit
	// reply can drive limit to 0 with nothing in flight to raise it.
	MutantDropCreditGrant
	// MutantMissingAbortDrain aborts without dropping the sink
	// backlog: buffered items are stranded forever.
	MutantMissingAbortDrain
	// MutantWindowOffByOne admits a sender at active == limit.
	MutantWindowOffByOne
)

func (m creditMutant) String() string {
	switch m {
	case MutantNone:
		return "none"
	case MutantDropCreditGrant:
		return "dropped-credit-grant"
	case MutantMissingAbortDrain:
		return "missing-abort-drain"
	case MutantWindowOffByOne:
		return "off-by-one-window"
	}
	return fmt.Sprintf("mutant(%d)", int(m))
}

// apply seeds the mutant into params.
func (p modelParams) apply(m creditMutant) modelParams {
	switch m {
	case MutantDropCreditGrant:
		p.FloorOne = false
	case MutantMissingAbortDrain:
		p.AbortDrain = false
	case MutantWindowOffByOne:
		p.StrictGate = false
	}
	return p
}

// Job lifecycle within a writer, in protocol order.
const (
	jQueued  = iota // produced, waiting for a wire slot
	jWire           // slot acquired, Deliver outstanding
	jReplied        // absorbed (or rejected) by the sink, reply in flight
	jDone           // reply processed by the sender
	jDropped        // dropped on the sender's sticky-error path
)

// creditState is one state of the transition system.  Kept as plain
// slices and encoded to a compact string key for the visited set.
type creditState struct {
	js         [][]int8 // [writer][job] lifecycle
	snap       [][]int8 // [writer][job] credits carried by the reply; -1 = abort status
	sendNext   []int8   // [writer] next seq allowed a slot
	active     []int8   // [writer] deliveries on the wire or replied-unprocessed
	limit      []int8   // [writer] credit-adjusted window
	errs       []bool   // [writer] sticky error observed
	expected   []int8   // sink's per-writer sequence gate
	buf        int8     // sink buffer occupancy
	consumed   int16
	dropped    int16 // client- and sink-side dropped items (ledger)
	aborted    bool
	abortsLeft int8
}

func (s *creditState) clone() *creditState {
	c := &creditState{
		js: make([][]int8, len(s.js)), snap: make([][]int8, len(s.snap)),
		sendNext: append([]int8(nil), s.sendNext...),
		active:   append([]int8(nil), s.active...),
		limit:    append([]int8(nil), s.limit...),
		errs:     append([]bool(nil), s.errs...),
		expected: append([]int8(nil), s.expected...),
		buf:      s.buf, consumed: s.consumed, dropped: s.dropped,
		aborted: s.aborted, abortsLeft: s.abortsLeft,
	}
	for w := range s.js {
		c.js[w] = append([]int8(nil), s.js[w]...)
		c.snap[w] = append([]int8(nil), s.snap[w]...)
	}
	return c
}

// key encodes the state for the visited set, with two reductions that
// keep exploration tractable without losing violations:
//
//   - writer symmetry: writers are interchangeable (they share only
//     the sink buffer; the sequence gate travels with the writer), so
//     per-writer blocks are sorted before joining;
//   - ghost elision: consumed/dropped never appear in a transition
//     guard — they exist only for the I1 ledger — so they must not
//     split states.  I1 is still checked on every visited state.
func (s *creditState) key() string {
	blocks := make([]string, len(s.js))
	for w := range s.js {
		var b strings.Builder
		b.Grow(16)
		dead := true
		for j := range s.js[w] {
			st := s.js[w][j]
			if st == jDropped {
				st = jDone // terminal kinds are indistinguishable to future behavior
			}
			if st != jDone {
				dead = false
			}
			b.WriteByte(byte('0' + st))
			b.WriteByte(byte('A' + s.snap[w][j] + 1))
		}
		if dead {
			// A fully-terminal writer makes no further transitions and
			// its gate is never consulted: one canonical block.
			blocks[w] = "T"
			continue
		}
		b.WriteByte(byte('0' + s.sendNext[w]))
		b.WriteByte(byte('0' + s.active[w]))
		b.WriteByte(byte('0' + s.limit[w]))
		if s.errs[w] {
			b.WriteByte('e')
		} else {
			b.WriteByte('.')
		}
		b.WriteByte(byte('0' + s.expected[w]))
		blocks[w] = b.String()
	}
	sort.Strings(blocks)
	var b strings.Builder
	b.Grow(64)
	for _, blk := range blocks {
		b.WriteString(blk)
	}
	fmt.Fprintf(&b, "|%d|%v|%d", s.buf, s.aborted, s.abortsLeft)
	return b.String()
}

// tcode is a compact transition label.  Rendering happens only when a
// violation needs its witness trace — formatting every transition
// eagerly costs more than the exploration itself.
type tcode struct {
	op   uint8
	w, j int8
	x    int8 // credits (opAccept) or new limit (opReply)
}

const (
	opNone uint8 = iota
	opAcquire
	opDrop
	opAccept
	opReject
	opReply
	opReplyAbort
	opConsume
	opAbort
)

func (c tcode) String() string {
	switch c.op {
	case opAcquire:
		return fmt.Sprintf("w%d: acquire slot, Deliver seq %d", c.w, c.j)
	case opDrop:
		return fmt.Sprintf("w%d: drop seq %d (sticky error)", c.w, c.j)
	case opAccept:
		return fmt.Sprintf("w%d: sink accepts seq %d (credits=%d)", c.w, c.j, c.x)
	case opReject:
		return fmt.Sprintf("w%d: sink rejects seq %d (aborted)", c.w, c.j)
	case opReply:
		return fmt.Sprintf("w%d: reply seq %d (limit=%d)", c.w, c.j, c.x)
	case opReplyAbort:
		return fmt.Sprintf("w%d: reply seq %d = aborted (sticky error)", c.w, c.j)
	case opConsume:
		return "reader: consume item"
	case opAbort:
		return "sink: abort (drop backlog)"
	}
	return "?"
}

// modelViolation is one invariant failure with a witness trace.
type modelViolation struct {
	Invariant string // "I1".."I4"
	Desc      string
	Trace     []string // transition labels from the initial state
}

// exploreResult summarises one exhaustive exploration.
type exploreResult struct {
	States      int
	Transitions int
	Capped      bool // hit maxStates before exhausting the space
	Violations  []modelViolation
}

// exploreCreditModel BFS-explores every interleaving of the protocol
// under p.  Exploration stops at the first violation — one witness is
// enough, and BFS makes its trace minimal; a clean result means the
// space was explored exhaustively (unless Capped).
func exploreCreditModel(p modelParams, maxStates int) exploreResult {
	if maxStates <= 0 {
		maxStates = 4_000_000
	}
	jobs := p.Window + 1 // Window data jobs + the End job, per writer

	init := &creditState{
		js: make([][]int8, p.Writers), snap: make([][]int8, p.Writers),
		sendNext: make([]int8, p.Writers), active: make([]int8, p.Writers),
		limit: make([]int8, p.Writers), errs: make([]bool, p.Writers),
		expected: make([]int8, p.Writers), abortsLeft: 0,
	}
	if p.WithAbort {
		init.abortsLeft = 1
	}
	for w := 0; w < p.Writers; w++ {
		init.js[w] = make([]int8, jobs)
		init.snap[w] = make([]int8, jobs)
		init.limit[w] = int8(p.Window)
	}
	totalItems := int16(p.Writers * p.Window) // End jobs carry no item

	type visit struct {
		parent string
		code   tcode
	}
	visited := map[string]visit{init.key(): {}}
	queue := []*creditState{init}
	res := exploreResult{States: 1}
	seenInv := map[string]bool{}

	traceTo := func(key string) []string {
		var labels []string
		for key != "" {
			v := visited[key]
			if v.code.op == opNone {
				break
			}
			labels = append(labels, v.code.String())
			key = v.parent
		}
		for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
			labels[i], labels[j] = labels[j], labels[i]
		}
		return labels
	}

	report := func(inv, desc, key string) {
		if seenInv[inv] {
			return
		}
		seenInv[inv] = true
		res.Violations = append(res.Violations, modelViolation{Invariant: inv, Desc: desc, Trace: traceTo(key)})
	}

	itemOf := func(j int) int16 {
		if j < p.Window {
			return 1
		}
		return 0 // the End job
	}

	check := func(s *creditState, key string) {
		// I1: item conservation ledger.
		var pending int16
		for w := range s.js {
			for j := range s.js[w] {
				if s.js[w][j] == jQueued || s.js[w][j] == jWire {
					pending += itemOf(j)
				}
			}
		}
		if pending+int16(s.buf)+s.consumed+s.dropped != totalItems {
			report("I1", fmt.Sprintf("conservation broken: pending=%d buf=%d consumed=%d dropped=%d total=%d",
				pending, s.buf, s.consumed, s.dropped, totalItems), key)
		}
		// I2: window bound.  Note active > limit is legal transiently (a
		// credit reply may shrink the limit below what is already in
		// flight); the gate only blocks new acquisitions.  The hard
		// invariant is that in-flight work never exceeds the window, nor
		// does the limit that admits it (only an unclamped rule can get
		// there: the witness for a dropped clamp).
		for w := range s.js {
			if int(s.active[w]) > p.Window || int(s.limit[w]) > p.Window {
				report("I2", fmt.Sprintf("window exceeded for writer %d: active=%d limit=%d window=%d",
					w, s.active[w], s.limit[w], p.Window), key)
			}
		}
	}
	checkTerminal := func(s *creditState, key string) {
		allDone := true
		for w := range s.js {
			for j := range s.js[w] {
				if st := s.js[w][j]; st != jDone && st != jDropped {
					allDone = false
				}
			}
			if s.active[w] != 0 {
				allDone = false
			}
		}
		if !allDone {
			report("I3", "quiescent state with undelivered data: no transition enabled but jobs are unresolved (lost-credit stall)", key)
			return
		}
		if s.aborted {
			if s.buf != 0 {
				report("I4", fmt.Sprintf("abort did not drain: %d item(s) stranded in the sink buffer", s.buf), key)
			}
			return
		}
		if s.consumed != totalItems || s.buf != 0 {
			report("I3", fmt.Sprintf("clean completion lost data: consumed=%d of %d, buf=%d", s.consumed, totalItems, s.buf), key)
		}
	}

	// next enumerates the successors of s as (code, state) pairs.
	type succ struct {
		code tcode
		st   *creditState
	}
	next := func(s *creditState) []succ {
		var out []succ
		emit := func(code tcode, st *creditState) {
			out = append(out, succ{code, st})
		}
		for w := 0; w < p.Writers; w++ {
			// acquireSlot: the job at sendNext takes a wire slot (or is
			// dropped on the sticky-error path, which still advances the
			// slot sequence so seq-parked workers never stall).
			j := int(s.sendNext[w])
			if j < jobs && s.js[w][j] == jQueued {
				if s.errs[w] {
					c := s.clone()
					c.js[w][j] = jDropped
					c.dropped += itemOf(j)
					c.sendNext[w]++
					emit(tcode{op: opDrop, w: int8(w), j: int8(j)}, c)
				} else {
					gate := int(s.active[w]) < int(s.limit[w])
					if !p.StrictGate {
						gate = int(s.active[w]) <= int(s.limit[w])
					}
					if gate {
						c := s.clone()
						c.js[w][j] = jWire
						c.sendNext[w]++
						c.active[w]++
						emit(tcode{op: opAcquire, w: int8(w), j: int8(j)}, c)
					}
				}
			}
			// sinkAccept / sinkReject: the sink serves the writer's wire
			// job at its sequence gate; when aborted, every parked wire
			// job is released with StatusAborted (if the wait loops
			// re-check abortErr).
			for j := 0; j < jobs; j++ {
				if s.js[w][j] != jWire {
					continue
				}
				if s.aborted {
					if p.AbortWakes {
						c := s.clone()
						c.js[w][j] = jReplied
						c.snap[w][j] = -1
						c.dropped += itemOf(j)
						emit(tcode{op: opReject, w: int8(w), j: int8(j)}, c)
					}
					continue
				}
				if int(s.expected[w]) != j {
					continue // parked on the sequence gate
				}
				if itemOf(j) > 0 && int(s.buf) >= p.Cap {
					continue // parked on the capacity wait
				}
				c := s.clone()
				c.buf += int8(itemOf(j))
				c.expected[w]++
				credits := p.Cap - int(c.buf)
				if credits < 0 {
					credits = 0
				}
				c.js[w][j] = jReplied
				c.snap[w][j] = int8(credits)
				emit(tcode{op: opAccept, w: int8(w), j: int8(j), x: int8(credits)}, c)
			}
			// replyDone: any outstanding reply completes (senders are
			// independent goroutines; replies are unordered).
			for j := 0; j < jobs; j++ {
				if s.js[w][j] != jReplied {
					continue
				}
				c := s.clone()
				c.js[w][j] = jDone
				c.active[w]--
				snap := c.snap[w][j]
				c.snap[w][j] = 0 // dead once consumed; keep keys canonical
				if snap < 0 {
					c.errs[w] = true
					emit(tcode{op: opReplyAbort, w: int8(w), j: int8(j)}, c)
					continue
				}
				lim := int(snap) // batch size 1: credits/bsz = credits
				if p.FloorOne {
					lim = 1 + lim
				}
				if p.ClampWin && lim > p.Window {
					lim = p.Window
				}
				c.limit[w] = int8(lim)
				emit(tcode{op: opReply, w: int8(w), j: int8(j), x: int8(lim)}, c)
			}
		}
		// consume: the reader drains one item (gone after abort).
		if s.buf > 0 && !s.aborted {
			c := s.clone()
			c.buf--
			c.consumed++
			emit(tcode{op: opConsume}, c)
		}
		// abort: one abort event (ServeAbort / Cancel), which drops the
		// backlog when the drain discipline is present.
		if s.abortsLeft > 0 && !s.aborted {
			c := s.clone()
			c.aborted = true
			c.abortsLeft--
			if p.AbortDrain {
				c.dropped += int16(c.buf)
				c.buf = 0
			}
			emit(tcode{op: opAbort}, c)
		}
		return out
	}

	for len(queue) > 0 && len(res.Violations) == 0 {
		s := queue[0]
		queue = queue[1:]
		key := s.key()
		check(s, key)
		succ := next(s)
		if len(succ) == 0 {
			checkTerminal(s, key)
			continue
		}
		for _, t := range succ {
			res.Transitions++
			tk := t.st.key()
			if _, seen := visited[tk]; seen {
				continue
			}
			if res.States >= maxStates {
				res.Capped = true
				return res
			}
			visited[tk] = visit{parent: key, code: t.code}
			res.States++
			queue = append(queue, t.st)
		}
	}
	return res
}
