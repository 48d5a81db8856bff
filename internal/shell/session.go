package shell

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"asymstream/internal/filters"
	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/unixfs"
)

// Session is one shell session over a simulated Eden system: a kernel,
// a bootstrap Unix file system, and the state needed to build and run
// pipelines.
type Session struct {
	K     *kernel.Kernel
	UFS   *unixfs.UnixFS
	ufs   uid.UID
	out   io.Writer
	trace ring
	peers map[string]*transport.Peer

	mu   sync.Mutex
	last metrics.Snapshot // the meters at the previous stats
}

// NewSession boots a session on its own kernel.  out receives
// pipeline output and command results.
func NewSession(out io.Writer) (*Session, error) {
	s := &Session{out: out}
	s.K = kernel.New(kernel.Config{Trace: s.trace.Record})
	var err error
	if s.UFS, s.ufs, err = unixfs.New(s.K, 0, nil); err != nil {
		return nil, err
	}
	s.last = s.K.Metrics().Snapshot()
	return s, nil
}

// Close shuts the session's kernel and bridge connections down.
func (s *Session) Close() {
	for _, p := range s.peers {
		_ = p.Close()
	}
	s.K.Shutdown()
}

// Execute runs one line: a pipeline, or a built-in command.  A line
// that is a single source stage runs as `<line> | print`.
func (s *Session) Execute(line string) error {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	toks, err := lex(line)
	if err != nil {
		return err
	}
	p, err := parse(toks)
	if err != nil {
		return err
	}
	if len(p.stages) == 1 {
		if _, ok := lookup(p.stages[0].name); !ok && p.stages[0].name != "remote" {
			return s.command(p.stages[0])
		}
		p.stages = append(p.stages, stageSpec{name: "print"})
	}
	return s.runPipeline(p)
}

// command dispatches the non-pipeline built-ins.
func (s *Session) command(st stageSpec) error {
	need := map[string]int{"put": 2, "cat": 1, "mkdir": 1, "rm": 1}[st.name]
	if len(st.args) < need {
		return fmt.Errorf("shell: %s: missing argument %d", st.name, len(st.args)+1)
	}
	arg := func(i int) string { return st.args[i].text }
	host := s.UFS.Host()
	switch st.name {
	case "help":
		fmt.Fprint(s.out, helpText())
		return nil
	case "ls":
		path := "/"
		if len(st.args) > 0 {
			path = arg(0)
		}
		names, err := host.ReadDir(path)
		for _, n := range names {
			fmt.Fprintln(s.out, n)
		}
		return err
	case "put":
		return host.WriteFile(arg(0), []byte(arg(1)))
	case "cat":
		data, err := host.ReadFile(arg(0))
		if err == nil {
			_, err = s.out.Write(data)
		}
		return err
	case "mkdir":
		return host.MkdirAll(arg(0))
	case "rm":
		return host.Remove(arg(0))
	default:
		return fmt.Errorf("shell: unknown command %q (single-stage lines are commands; pipelines need '|')", st.name)
	}
}

// options decodes the global key=value options into build options.
func options(p parsed) (transput.Discipline, transput.Options, error) {
	d := transput.ReadOnly
	opt := transput.Options{}
	for key, val := range p.opts {
		switch key {
		case "discipline":
			switch strings.ToLower(val) {
			case "readonly", "ro", "read-only":
				d = transput.ReadOnly
			case "writeonly", "wo", "write-only":
				d = transput.WriteOnly
			case "buffered", "conventional", "unix":
				d = transput.Buffered
			default:
				return d, opt, fmt.Errorf("shell: unknown discipline %q", val)
			}
		case "batch", "prefetch", "anticipation", "buffercap":
			n, err := strconv.Atoi(val)
			if err != nil {
				return d, opt, fmt.Errorf("shell: %s=%q: %w", key, val, err)
			}
			switch key {
			case "batch":
				opt.Batch = n
			case "prefetch":
				opt.Prefetch = n
			case "anticipation":
				opt.Anticipation = n
			case "buffercap":
				opt.BufferCapacity = n
			}
		case "cap":
			opt.CapabilityMode = val == "true" || val == "1" || val == "yes"
		}
	}
	return d, opt, nil
}

// runPipeline builds and runs a parsed pipeline.
func (s *Session) runPipeline(p parsed) error {
	d, opt, err := options(p)
	if err != nil {
		return err
	}
	sinkStage := p.stages[len(p.stages)-1]
	sink, finish, err := s.sink(sinkStage)
	if err != nil {
		return err
	}
	var fs []transput.Filter
	for _, st := range p.stages[1 : len(p.stages)-1] {
		f, err := s.filterFor(st)
		if err != nil {
			return err
		}
		fs = append(fs, f)
	}
	src, release, err := s.source(p.stages[0])
	if err != nil {
		return err
	}
	pl, err := transput.BuildPipeline(s.K, d, src, fs, sink, opt)
	if err != nil {
		release()
		return err
	}
	defer pl.Destroy() // its Ejects go with the line, however it ends
	start := time.Now()
	if err := pl.Run(); err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(s.out, "[%s discipline, %d ejects, %s]\n", d, pl.Ejects(), elapsed.Round(time.Microsecond))
	return nil
}

// source builds the pipeline's SourceFunc from its first stage: a
// `remote` stage pulls a served stream (§5 capability grant: the server
// mints a transient source Eject per open); any other word's stream is
// opened now, through the source table, so that `stats` and `trace`
// see the kernel as it was before this pipeline.  release closes the
// stream of a pipeline that is never built; once built, the source
// closes it.
func (s *Session) source(st stageSpec) (src transput.SourceFunc, release func(), err error) {
	if st.name == "remote" {
		src, err = s.remoteSource(st)
		return src, func() {}, err
	}
	e, ok := lookup(st.name)
	if !ok {
		return nil, nil, fmt.Errorf("shell: unknown source %q (try %s, remote)", st.name, sourceWords())
	}
	items, err := e.open(s, st.args)
	if err != nil {
		return nil, nil, err
	}
	return pump(items), func() { _ = items.Close() }, nil
}

// sink builds the pipeline's SinkFunc and a finish function run after
// completion: print and discard copy the stream out, file collects it
// and writes the host file at the end.
func (s *Session) sink(st stageSpec) (transput.SinkFunc, func() error, error) {
	copyTo := func(w io.Writer) transput.SinkFunc {
		return func(in transput.ItemReader) error {
			_, err := io.Copy(w, transput.NewIOReader(in))
			return err
		}
	}
	nop := func() error { return nil }
	switch st.name {
	case "print":
		return copyTo(s.out), nop, nil
	case "discard":
		return copyTo(io.Discard), nop, nil
	case "file":
		if len(st.args) != 1 {
			return nil, nil, fmt.Errorf("shell: file sink needs a path")
		}
		var collected bytes.Buffer
		return copyTo(&collected), func() error { return s.UFS.Host().WriteFile(st.args[0].text, collected.Bytes()) }, nil
	default:
		return nil, nil, fmt.Errorf("shell: unknown sink %q (try print, discard, file)", st.name)
	}
}

// filterFor maps a stage spec to a filter from the library.  The
// session is needed for filters with host-FS parameters (spell).
func (s *Session) filterFor(st stageSpec) (transput.Filter, error) {
	arg := func(i int) (string, bool) {
		if i < len(st.args) {
			return st.args[i].text, true
		}
		return "", false
	}
	num := func(i, dflt int) (int, error) {
		txt, ok := arg(i)
		if !ok {
			return dflt, nil
		}
		return strconv.Atoi(txt)
	}
	mk := func(b transput.Body) (transput.Filter, error) {
		return transput.Filter{Name: st.name, Body: b}, nil
	}
	switch st.name {
	case "identity", "cat":
		return mk(filters.Identity())
	case "upcase":
		return mk(filters.UpperCase())
	case "lowcase", "downcase":
		return mk(filters.LowerCase())
	case "strip":
		prefix, ok := arg(0)
		if !ok {
			prefix = "C"
		}
		return mk(filters.StripComments(prefix))
	case "grep":
		pat, ok := arg(0)
		if !ok {
			return transput.Filter{}, fmt.Errorf("shell: grep needs a pattern")
		}
		invert := false
		if flag, ok := arg(1); ok && flag == "-v" {
			invert = true
		}
		return mk(filters.Grep(pat, invert))
	case "replace":
		pat, ok1 := arg(0)
		rep, ok2 := arg(1)
		if !ok1 || !ok2 {
			return transput.Filter{}, fmt.Errorf("shell: replace needs pattern and replacement")
		}
		return mk(filters.Replace(pat, rep))
	case "head":
		n, err := num(0, 10)
		if err != nil {
			return transput.Filter{}, err
		}
		return mk(filters.Head(n))
	case "tail":
		n, err := num(0, 10)
		if err != nil {
			return transput.Filter{}, err
		}
		return mk(filters.Tail(n))
	case "ln", "linenumber":
		return mk(filters.LineNumber())
	case "sort":
		return mk(filters.SortLines())
	case "uniq":
		return mk(filters.Uniq())
	case "wc":
		return mk(filters.WordCount())
	case "rot13":
		return mk(filters.Rot13())
	case "expand":
		n, err := num(0, 8)
		if err != nil {
			return transput.Filter{}, err
		}
		return mk(filters.ExpandTabs(n))
	case "paginate":
		n, err := num(0, 60)
		if err != nil {
			return transput.Filter{}, err
		}
		title, _ := arg(1)
		return mk(filters.Paginate(n, title))
	case "sed":
		// Inline edit script: each argument is one command, e.g.
		//   sed "s/old/new/" "d/pattern/"
		// The commands become the editor's second (command) input.
		if len(st.args) == 0 {
			return transput.Filter{}, fmt.Errorf("shell: sed needs at least one command")
		}
		script := make([][]byte, len(st.args))
		for i, a := range st.args {
			script[i] = []byte(a.text + "\n")
		}
		body := func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
			return filters.StreamEditor()(
				[]transput.ItemReader{ins[0], transput.NewSliceReader(script)}, outs)
		}
		return mk(body)
	case "fold":
		n, err := num(0, 72)
		if err != nil {
			return transput.Filter{}, err
		}
		return mk(filters.Fold(n))
	case "pretty":
		ind, ok := arg(0)
		if !ok {
			ind = "    "
		}
		return mk(filters.PrettyPrint(ind))
	case "histogram", "freq":
		return mk(filters.Histogram())
	case "spell":
		// spell /dict.txt — the dictionary is read from the host FS at
		// build time and becomes the checker's second input.
		path, ok := arg(0)
		if !ok {
			return transput.Filter{}, fmt.Errorf("shell: spell needs a dictionary path")
		}
		dict, err := s.UFS.Host().ReadFile(path)
		if err != nil {
			return transput.Filter{}, err
		}
		words := transput.SplitLines(dict)
		body := func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
			return filters.SpellCheck()(
				[]transput.ItemReader{ins[0], transput.NewSliceReader(words)}, outs)
		}
		return mk(body)
	case "words":
		return mk(filters.Words())
	default:
		return transput.Filter{}, fmt.Errorf("shell: unknown filter %q (try: %s)", st.name, strings.Join(FilterNames(), ", "))
	}
}

// FilterNames lists the filters the shell accepts, for help text.
func FilterNames() []string {
	names := []string{
		"cat", "upcase", "lowcase", "strip", "grep", "replace",
		"head", "tail", "ln", "sort", "uniq", "wc", "rot13",
		"expand", "paginate", "sed", "fold", "pretty", "histogram",
		"words", "spell",
	}
	sort.Strings(names)
	return names
}

// helpText is the help command's text; its source and filter lists
// are the tables the shell runs.
func helpText() string {
	var srcs []string
	for _, e := range sources {
		srcs = append(srcs, strings.TrimSpace(e.word+" "+e.args))
	}
	return `pipelines:
  <source> | <filter>... | <sink>   [options]
  a line that is one source word runs as <line> | print
sources: ` + strings.Join(srcs, "   ") + `   remote ADDR spec...
sinks:   print   discard   file /path
filters: ` + strings.Join(FilterNames(), " ") + `
options: discipline=readonly|writeonly|buffered  batch=N  prefetch=N  anticipation=N  cap=true
commands:
  ls [/path]        list host directory
  put /path "text"  write host file
  cat /path         show host file
  mkdir /path       create host directory
  rm /path          remove host file
  help              this text
`
}
