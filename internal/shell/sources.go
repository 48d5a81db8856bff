package shell

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"asymstream/internal/device"
	"asymstream/internal/fsys"
	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/unixfs"
)

// sourceEntry is one word of the source table: its argument syntax,
// for help, and how it opens its stream.
type sourceEntry struct {
	word, args string
	open       func(s *Session, args []token) (transport.ItemSource, error)
}

// sources is the one source table: the words a local pipeline's first
// stage may be, and the specs a served session honours (Opener).  An
// entry opens its stream when a local pipeline is built, or when a
// client's Remote.Open arrives.  `remote` is not in the table, so a
// served session never dials onward for a client.
var sources = []sourceEntry{
	{"text", `"..."`, (*Session).openText},
	{"lines", `"..."`, (*Session).openText},
	{"count", "N", (*Session).openCount},
	{"clock", "N", (*Session).openClock},
	{"file", "/path", (*Session).openFile},
	{"stats", "", (*Session).openStats},
	{"trace", "N", (*Session).openTrace},
}

// lookup finds word's entry in the table.
func lookup(word string) (sourceEntry, bool) {
	for _, e := range sources {
		if e.word == word {
			return e, true
		}
	}
	return sourceEntry{}, false
}

// sourceWords lists the table's words, for error hints.
func sourceWords() string {
	words := make([]string, len(sources))
	for i, e := range sources {
		words[i] = e.word
	}
	return strings.Join(words, ", ")
}

// pump is the one ItemSource → SourceFunc adaptor: it copies src into
// the pipeline and closes it.
func pump(src transport.ItemSource) transput.SourceFunc {
	return func(out transput.ItemWriter) error {
		defer src.Close()
		for {
			it, err := src.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := out.Put(it); err != nil {
				return err
			}
		}
	}
}

// itemFuncs is an ItemSource made of a Next function and an optional
// clean-up that Close runs.
type itemFuncs struct {
	next func() ([]byte, error)
	done func()
}

func (f itemFuncs) Next() ([]byte, error) { return f.next() }

func (f itemFuncs) Close() error {
	if f.done != nil {
		f.done()
	}
	return nil
}

// number reads a word's one argument, a positive integer; with no
// argument it is dflt, unless dflt is 0.  A client may send it, so it
// bounds loops only and never sizes an allocation.
func number(word string, args []token, dflt int) (int, error) {
	if len(args) == 0 && dflt > 0 {
		return dflt, nil
	}
	if len(args) != 1 {
		return 0, fmt.Errorf("shell: %s needs a number", word)
	}
	n, err := strconv.Atoi(args[0].text)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("shell: %s %q: want a positive integer", word, args[0].text)
	}
	return n, nil
}

// openText serves its arguments, joined by spaces, one line an item.
func (s *Session) openText(args []token) (transport.ItemSource, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("shell: text needs a (quoted) argument")
	}
	words := make([]string, len(args))
	for i, a := range args {
		words[i] = a.text
	}
	return &transport.SliceSource{Items: transput.SplitLines([]byte(strings.Join(words, " ")))}, nil
}

// openCount yields "0\n".."N-1\n" without materialising the run.
func (s *Session) openCount(args []token) (transport.ItemSource, error) {
	n, err := number("count", args, 0)
	if err != nil {
		return nil, err
	}
	i := 0
	return itemFuncs{next: func() ([]byte, error) {
		if i == n {
			return nil, io.EOF
		}
		i++
		return fmt.Appendf(nil, "%d\n", i-1), nil
	}}, nil
}

// openClock pulls N timestamps from a ClockSource Eject, the paper's
// date/time source (§4), transient to this stream.
func (s *Session) openClock(args []token) (transport.ItemSource, error) {
	n, err := number("clock", args, 3)
	if err != nil {
		return nil, err
	}
	_, clk, err := device.NewClockSource(s.K, 0, nil, "")
	if err != nil {
		return nil, err
	}
	in := transput.NewInPort(s.K, uid.Nil, clk, transput.Chan(0), transput.InPortConfig{})
	return itemFuncs{
		next: func() ([]byte, error) {
			if n == 0 {
				return nil, io.EOF
			}
			n--
			return in.Next()
		},
		done: func() {
			in.Cancel("clock read complete")
			_ = s.K.Destroy(clk)
		},
	}, nil
}

// openFile obtains an Eden stream over a host file from the bootstrap
// Eject: input redirection from a file uses the same mechanism as from
// any Eject (§4).  Close closes the transient UnixFile, which then
// disappears (§7).
func (s *Session) openFile(args []token) (transport.ItemSource, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("shell: file needs a path")
	}
	ref, err := unixfs.NewStream(s.K, uid.Nil, s.ufs, args[0].text)
	if err != nil {
		return nil, err
	}
	in := transput.NewInPort(s.K, uid.Nil, ref.UID, ref.Channel, transput.InPortConfig{Batch: 16})
	return itemFuncs{next: in.Next, done: func() { _ = fsys.CloseStream(s.K, uid.Nil, ref) }}, nil
}

// openStats serves one "name=value" line per meter that moved since the
// session's previous stats, sorted by name.
func (s *Session) openStats(args []token) (transport.ItemSource, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("shell: stats takes no argument")
	}
	s.mu.Lock()
	now := s.K.Metrics().Snapshot()
	moved := metrics.Diff(s.last, now)
	s.last = now
	s.mu.Unlock()
	src := &transport.SliceSource{}
	for _, kv := range strings.Fields(moved.String()) {
		src.Items = append(src.Items, []byte(kv+"\n"))
	}
	return src, nil
}

// openTrace serves the last N invocations the session's kernel
// completed, as they stood when the stream opened: a header, then one
// line per event, oldest first.
func (s *Session) openTrace(args []token) (transport.ItemSource, error) {
	n, err := number("trace", args, 20)
	if err != nil {
		return nil, err
	}
	total, evs := s.trace.last(n)
	src := &transport.SliceSource{Items: make([][]byte, 0, len(evs)+1)}
	src.Items = append(src.Items, fmt.Appendf(nil, "%d invocations total; last %d:\n", total, len(evs)))
	for _, ev := range evs {
		status := "ok"
		if ev.Err != "" {
			status = "ERR " + ev.Err
		}
		from := "external"
		if !ev.From.IsNil() {
			from = ev.From.String()[:8]
		}
		src.Items = append(src.Items, fmt.Appendf(nil, "#%-6d %-24s %d->%d  %s -> %s  %8s  %s\n",
			ev.MsgID, ev.Op, ev.FromNode, ev.ToNode, from, ev.Target.String()[:8], ev.Elapsed.Round(1000), status))
	}
	return src, nil
}

// ring keeps the latest invocations of a session's kernel: Record is
// the kernel's Trace hook, last is what `trace N` reads.
type ring struct {
	mu    sync.Mutex
	buf   [4096]kernel.TraceEvent
	total int
}

// Record stores one event; it is the kernel.TraceFunc.
func (r *ring) Record(ev kernel.TraceEvent) {
	r.mu.Lock()
	r.buf[r.total%len(r.buf)] = ev
	r.total++
	r.mu.Unlock()
}

// last returns how many events were ever recorded and the newest n of
// those retained, oldest first.
func (r *ring) last(n int) (total int, evs []kernel.TraceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs = make([]kernel.TraceEvent, min(n, r.total, len(r.buf)))
	for i := range evs {
		evs[i] = r.buf[(r.total-len(evs)+i)%len(r.buf)]
	}
	return r.total, evs
}
