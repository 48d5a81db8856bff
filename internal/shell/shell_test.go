package shell

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/quiesce"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// --- lexer / parser ---

func TestLexBasics(t *testing.T) {
	toks, err := lex(`count 5 | upcase | print batch=2`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	want := []string{"count", "5", "|", "upcase", "|", "print", "batch=2"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Fatalf("lex = %v", texts)
	}
}

func TestLexQuotedStrings(t *testing.T) {
	toks, err := lex(`text "hello world\n\t\"quoted\"\\"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || !toks[1].quoted {
		t.Fatalf("toks = %+v", toks)
	}
	if toks[1].text != "hello world\n\t\"quoted\"\\" {
		t.Fatalf("escape decoding = %q", toks[1].text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{`text "unterminated`, `text "bad \q escape"`, `text "trail\`} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) accepted", bad)
		}
	}
}

func TestLexPipeInQuotes(t *testing.T) {
	toks, err := lex(`text "a|b" | print`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stages) != 2 {
		t.Fatalf("quoted pipe split stages: %+v", p.stages)
	}
	if p.stages[0].args[0].text != "a|b" {
		t.Fatalf("arg = %q", p.stages[0].args[0].text)
	}
}

func TestParseOptions(t *testing.T) {
	toks, _ := lex(`count 10 discipline=writeonly | grep x=y | print batch=4 cap=true`)
	p, err := parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	if p.opts["discipline"] != "writeonly" || p.opts["batch"] != "4" || p.opts["cap"] != "true" {
		t.Fatalf("opts = %v", p.opts)
	}
	// "x=y" is NOT an option key, stays a grep argument.
	if len(p.stages) != 3 || p.stages[1].args[0].text != "x=y" {
		t.Fatalf("stages = %+v", p.stages)
	}
}

func TestParseEmptyStage(t *testing.T) {
	toks, _ := lex(`count 5 | | print`)
	if _, err := parse(toks); err == nil {
		t.Fatal("empty stage accepted")
	}
}

// --- session ---

func run(t *testing.T, lines ...string) string {
	t.Helper()
	var out bytes.Buffer
	s, err := NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for _, l := range lines {
		if err := s.Execute(l); err != nil {
			t.Fatalf("Execute(%q): %v", l, err)
		}
	}
	return out.String()
}

func TestPipelineAllDisciplines(t *testing.T) {
	quiesce.Deadline(t, time.Minute)
	for _, d := range []string{"readonly", "writeonly", "buffered"} {
		out := run(t, `text "b\na\nb\n" | sort | uniq | print discipline=`+d)
		if !strings.HasPrefix(out, "a\nb\n") {
			t.Fatalf("%s output = %q", d, out)
		}
		if !strings.Contains(out, d[:4]) && !strings.Contains(out, "buffered") {
			t.Logf("footer: %q", out)
		}
	}
}

// TestPipelineLinesLeaveNoEjects: a pipeline line destroys the Ejects
// it built once it has run, also when it fails after the build.
func TestPipelineLinesLeaveNoEjects(t *testing.T) {
	var out bytes.Buffer
	s, err := NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	base := s.K.ActiveCount()
	for range 5 {
		if err := s.Execute(`count 3 | upcase | discard`); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Execute(`count 3 | upcase | file /no/such/dir/out`); err == nil {
		t.Fatal("a file sink under a missing directory did not fail")
	}
	if got := s.K.ActiveCount(); got != base {
		t.Fatalf("ActiveCount %d after six lines, want the baseline %d", got, base)
	}
}

func TestShellFilters(t *testing.T) {
	out := run(t, `count 100 | grep "7$" | head 3 | ln | print`)
	if !strings.Contains(out, "1  7\n") || !strings.Contains(out, "3  27\n") {
		t.Fatalf("output = %q", out)
	}
}

func TestShellFileRoundTrip(t *testing.T) {
	out := run(t,
		`mkdir /tmp`,
		`put /tmp/in.txt "C strip\nkeep\n"`,
		`file /tmp/in.txt | strip C | upcase | file /tmp/out.txt`,
		`cat /tmp/out.txt`,
	)
	if !strings.Contains(out, "KEEP\n") {
		t.Fatalf("round trip output = %q", out)
	}
}

func TestShellLs(t *testing.T) {
	out := run(t,
		`mkdir /docs`,
		`put /docs/a "x"`,
		`put /docs/b "y"`,
		`ls /docs`,
	)
	if !strings.Contains(out, "a\n") || !strings.Contains(out, "b\n") {
		t.Fatalf("ls output = %q", out)
	}
}

func TestShellStatsAndHelp(t *testing.T) {
	out := run(t, `count 5 | discard`, `stats`, `help`)
	if !strings.Contains(out, "transfer_invocations") {
		t.Fatalf("stats output = %q", out)
	}
	if !strings.Contains(out, "pipelines:") {
		t.Fatalf("help missing: %q", out)
	}
}

func TestShellComments(t *testing.T) {
	out := run(t, `# just a comment`, ``, `   `)
	if out != "" {
		t.Fatalf("comments produced output %q", out)
	}
}

func TestShellErrors(t *testing.T) {
	var out bytes.Buffer
	s, err := NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, stop := serve(t, srv)
	defer stop()
	for _, bad := range []string{
		`bogus`,
		`count 5 | bogusfilter | print`,
		`bogussource 5 | print`,
		`count 5 | upcase | bogussink`,
		`count x | print`,
		`count 5 | print discipline=quantum`,
		`count 5 | print batch=many`,
		`cat /missing`,
		`put /only-a-path`,
		`mkdir`,
		`count 5 | grep | print`,
		`trace x | print`,
		`trace 0 | print`,
		`remote ADDR remote ADDR count 1 | print`, // a served session dials no further
	} {
		if err := s.Execute(strings.ReplaceAll(bad, "ADDR", addr)); err == nil {
			t.Errorf("Execute(%q) accepted", bad)
		}
	}
}

func TestShellCapabilityOption(t *testing.T) {
	out := run(t, `count 5 | upcase | print cap=true`)
	if !strings.Contains(out, "0\n") {
		t.Fatalf("cap pipeline output = %q", out)
	}
}

func TestShellRot13AndReplace(t *testing.T) {
	out := run(t, `text "hello\n" | rot13 | rot13 | replace hello goodbye | print`)
	if !strings.Contains(out, "goodbye\n") {
		t.Fatalf("output = %q", out)
	}
}

func TestShellWc(t *testing.T) {
	out := run(t, `text "one two\nthree\n" | wc | print`)
	if !strings.Contains(out, "2") || !strings.Contains(out, "3") {
		t.Fatalf("wc = %q", out)
	}
}

func TestShellClockSource(t *testing.T) {
	out := run(t, `clock 2 | print`)
	// Two RFC3339 timestamps plus the footer.
	if strings.Count(out, "T") < 2 || !strings.Contains(out, "ejects") {
		t.Fatalf("clock output = %q", out)
	}
}

func TestShellSedFilter(t *testing.T) {
	out := run(t, `text "hello world\ndrop me\n" | sed "s/world/eden/" "d/drop/" | print`)
	if !strings.Contains(out, "hello eden\n") || strings.Contains(out, "drop") {
		t.Fatalf("sed output = %q", out)
	}
}

func TestShellFoldAndPretty(t *testing.T) {
	out := run(t, `text "a b c d e f\n" | fold 3 | print`)
	if !strings.Contains(out, "a b\n") {
		t.Fatalf("fold output = %q", out)
	}
	out = run(t, `text "f() {\nx\n}\n" | pretty "  " | print`)
	if !strings.Contains(out, "  x\n") {
		t.Fatalf("pretty output = %q", out)
	}
}

func TestShellWordsHistogram(t *testing.T) {
	out := run(t, `text "to be or not to be\n" | words | histogram | print`)
	if !strings.Contains(out, "2\tbe") || !strings.Contains(out, "2\tto") {
		t.Fatalf("histogram output = %q", out)
	}
}

func TestShellTrace(t *testing.T) {
	out := run(t, `count 3 | discard`, `trace 4`)
	if !strings.Contains(out, "Transput.Transfer") || !strings.Contains(out, "invocations total") {
		t.Fatalf("trace output = %q", out)
	}
}

// TestHelpNamesTables: help lists every filter and every source word
// the shell runs.
func TestHelpNamesTables(t *testing.T) {
	out := run(t, `help`)
	for _, name := range FilterNames() {
		if !strings.Contains(out, " "+name+" ") && !strings.Contains(out, " "+name+"\n") {
			t.Errorf("help does not name the filter %q", name)
		}
	}
	for _, e := range sources {
		if !strings.Contains(out, " "+e.word+" ") {
			t.Errorf("help does not name the source %q", e.word)
		}
	}
}

// TestTraceRing: the session's kernel records every completed
// invocation, well formed and under a unique message id; `trace`
// renders an error and an external caller; and past the ring's size it
// still returns the newest events, in order.
func TestTraceRing(t *testing.T) {
	t.Run("captures", func(t *testing.T) {
		var out bytes.Buffer
		s, err := NewSession(&out)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Execute(`count 5 | discard batch=1`); err != nil {
			t.Fatal(err)
		}
		_, evs := s.trace.last(len(s.trace.buf))
		transfers := 0
		seen := make(map[uint64]bool, len(evs))
		for _, ev := range evs {
			if ev.Op == "" || ev.Target.IsNil() || ev.Elapsed <= 0 || ev.Err != "" {
				t.Fatalf("malformed event %+v", ev)
			}
			// MsgIDs identify, they do not order: each is drawn on the
			// stripe the sender happened to be on.
			if ev.MsgID == 0 || seen[ev.MsgID] {
				t.Fatalf("MsgID %d is zero or repeated (events %+v)", ev.MsgID, evs)
			}
			seen[ev.MsgID] = true
			if ev.Op == transput.OpTransfer {
				transfers++
			}
		}
		if transfers < 5 {
			t.Fatalf("%d Transfer events, want >= 5 (events %+v)", transfers, evs)
		}
	})
	t.Run("error from external", func(t *testing.T) {
		var out bytes.Buffer
		s, err := NewSession(&out)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.K.Invoke(uid.Nil, uid.New(), "Bogus.Op", &transput.ChannelsRequest{}); err == nil {
			t.Fatal("invocation of nothing succeeded")
		}
		if err := s.Execute(`trace 1`); err != nil {
			t.Fatal(err)
		}
		line := strings.Split(out.String(), "\n")[1]
		for _, want := range []string{"Bogus.Op", "external", "ERR "} {
			if !strings.Contains(line, want) {
				t.Errorf("trace line %q does not contain %q", line, want)
			}
		}
	})
	t.Run("wraps", func(t *testing.T) {
		r := new(ring)
		for i := range len(r.buf) + 904 {
			r.Record(kernel.TraceEvent{MsgID: uint64(i + 1), Op: "op"})
		}
		total, evs := r.last(3)
		if total != 5000 || len(evs) != 3 {
			t.Fatalf("total %d, %d events; want 5000 and 3", total, len(evs))
		}
		for i, ev := range evs {
			if ev.MsgID != uint64(4998+i) {
				t.Fatalf("newest 3 are %+v, want ids 4998..5000", evs)
			}
		}
		if _, evs := r.last(100000); len(evs) != len(r.buf) || evs[0].MsgID != 905 {
			t.Fatalf("last(100000): %d events from id %d, want %d from 905", len(evs), evs[0].MsgID, len(r.buf))
		}
	})
}

func TestShellSedNeedsScript(t *testing.T) {
	var out bytes.Buffer
	s, err := NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Execute(`count 3 | sed | print`); err == nil {
		t.Fatal("sed without script accepted")
	}
}

func TestShellSpell(t *testing.T) {
	out := run(t,
		`put /dict "the\nquick\nfox\n"`,
		`text "the qiuck fox\n" | spell /dict | print`,
	)
	if !strings.Contains(out, "qiuck\n") || strings.Contains(out, "fox\n") {
		t.Fatalf("spell output = %q", out)
	}
}

func TestShellSpellMissingDict(t *testing.T) {
	var out bytes.Buffer
	s, err := NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Execute(`text "x\n" | spell /nope | print`); err == nil {
		t.Fatal("spell with missing dictionary accepted")
	}
}
