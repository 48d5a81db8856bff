package filters

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"asymstream/internal/transput"
)

// apply runs a body over in-memory items and returns the outputs.
// Multi-stream bodies get extra inputs/outputs as provided.
func apply(t *testing.T, body transput.Body, ins [][][]byte, nOuts int) [][][]byte {
	t.Helper()
	outs, err := applyErr(body, ins, nOuts)
	if err != nil {
		t.Fatalf("body: %v", err)
	}
	return outs
}

func applyErr(body transput.Body, ins [][][]byte, nOuts int) ([][][]byte, error) {
	readers := make([]transput.ItemReader, len(ins))
	for i, items := range ins {
		readers[i] = transput.NewSliceReader(items)
	}
	writers := make([]transput.ItemWriter, nOuts)
	collects := make([]*transput.CollectWriter, nOuts)
	for i := range writers {
		collects[i] = &transput.CollectWriter{}
		writers[i] = collects[i]
	}
	if err := body(readers, writers); err != nil {
		return nil, err
	}
	outs := make([][][]byte, nOuts)
	for i, c := range collects {
		outs[i] = c.Items
	}
	return outs, nil
}

func lines(ss ...string) [][]byte {
	items := make([][]byte, len(ss))
	for i, s := range ss {
		items[i] = []byte(s)
	}
	return items
}

func strs(items [][]byte) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = string(it)
	}
	return out
}

func TestIdentity(t *testing.T) {
	in := lines("a\n", "b\n", "c\n")
	out := apply(t, Identity(), [][][]byte{in}, 1)
	if !equalItems(out[0], in) {
		t.Fatalf("identity changed data: %v", strs(out[0]))
	}
}

func TestCases(t *testing.T) {
	in := lines("Hello World\n", "MIXED case\n")
	up := apply(t, UpperCase(), [][][]byte{in}, 1)
	if strs(up[0])[0] != "HELLO WORLD\n" {
		t.Errorf("upcase: %q", up[0][0])
	}
	lo := apply(t, LowerCase(), [][][]byte{in}, 1)
	if strs(lo[0])[1] != "mixed case\n" {
		t.Errorf("lowcase: %q", lo[0][1])
	}
}

func TestStripComments(t *testing.T) {
	// The paper's own example (§3): strip Fortran comments.
	in := lines("C comment\n", "      CODE\n", "C more\n", "      MORE CODE\n")
	out := apply(t, StripComments("C"), [][][]byte{in}, 1)
	want := []string{"      CODE\n", "      MORE CODE\n"}
	if got := strs(out[0]); !eqStrings(got, want) {
		t.Fatalf("strip = %v, want %v", got, want)
	}
}

func TestGrep(t *testing.T) {
	in := lines("apple\n", "banana\n", "cherry\n", "apricot\n")
	out := apply(t, Grep("^ap", false), [][][]byte{in}, 1)
	if got := strs(out[0]); !eqStrings(got, []string{"apple\n", "apricot\n"}) {
		t.Fatalf("grep = %v", got)
	}
	inv := apply(t, Grep("^ap", true), [][][]byte{in}, 1)
	if got := strs(inv[0]); !eqStrings(got, []string{"banana\n", "cherry\n"}) {
		t.Fatalf("grep -v = %v", got)
	}
}

func TestGrepBadPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad pattern should panic at construction")
		}
	}()
	Grep("(unclosed", false)
}

func TestReplace(t *testing.T) {
	in := lines("foo bar foo\n")
	out := apply(t, Replace("foo", "baz"), [][][]byte{in}, 1)
	if got := string(out[0][0]); got != "baz bar baz\n" {
		t.Fatalf("replace = %q", got)
	}
}

func TestRot13Involution(t *testing.T) {
	f := func(data []byte) bool {
		once, err := applyErr(Rot13(), [][][]byte{{data}}, 1)
		if err != nil {
			return false
		}
		twice, err := applyErr(Rot13(), [][][]byte{once[0]}, 1)
		if err != nil {
			return false
		}
		return len(twice[0]) == 1 && bytes.Equal(twice[0][0], data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	out := apply(t, Rot13(), [][][]byte{lines("Hello\n")}, 1)
	if got := string(out[0][0]); got != "Uryyb\n" {
		t.Fatalf("rot13 = %q", got)
	}
}

func TestExpandTabs(t *testing.T) {
	in := lines("a\tb\n", "\tx\n")
	out := apply(t, ExpandTabs(4), [][][]byte{in}, 1)
	if got := string(out[0][0]); got != "a   b\n" {
		t.Fatalf("expand = %q", got)
	}
	if got := string(out[0][1]); got != "    x\n" {
		t.Fatalf("expand = %q", got)
	}
}

func TestLineNumber(t *testing.T) {
	in := lines("x\n", "y\n")
	out := apply(t, LineNumber(), [][][]byte{in}, 1)
	if got := string(out[0][0]); got != "     1  x\n" {
		t.Fatalf("ln = %q", got)
	}
	if got := string(out[0][1]); got != "     2  y\n" {
		t.Fatalf("ln = %q", got)
	}
}

func TestHeadTailLengths(t *testing.T) {
	f := func(total uint8, keep uint8) bool {
		n := int(total % 50)
		kp := int(keep % 20)
		in := make([][]byte, n)
		for i := range in {
			in[i] = []byte(fmt.Sprintf("%d", i))
		}
		h, err := applyErr(Head(kp), [][][]byte{in}, 1)
		if err != nil {
			return false
		}
		wantH := kp
		if n < kp {
			wantH = n
		}
		if len(h[0]) != wantH {
			return false
		}
		// Head keeps a prefix.
		for i, it := range h[0] {
			if string(it) != fmt.Sprintf("%d", i) {
				return false
			}
		}
		tl, err := applyErr(Tail(kp), [][][]byte{in}, 1)
		if err != nil {
			return false
		}
		if len(tl[0]) != wantH {
			return false
		}
		// Tail keeps a suffix.
		for i, it := range tl[0] {
			if string(it) != fmt.Sprintf("%d", n-wantH+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniq(t *testing.T) {
	in := lines("a\n", "a\n", "b\n", "a\n", "a\n", "a\n", "c\n")
	out := apply(t, Uniq(), [][][]byte{in}, 1)
	if got := strs(out[0]); !eqStrings(got, []string{"a\n", "b\n", "a\n", "c\n"}) {
		t.Fatalf("uniq = %v", got)
	}
}

func TestSortLinesProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		out, err := applyErr(SortLines(), [][][]byte{raw}, 1)
		if err != nil {
			return false
		}
		got := out[0]
		if len(got) != len(raw) {
			return false
		}
		// Sorted...
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1], got[i]) > 0 {
				return false
			}
		}
		// ...and a permutation of the input.
		a, b := strs(raw), strs(got)
		sort.Strings(a)
		sort.Strings(b)
		return eqStrings(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordCount(t *testing.T) {
	in := lines("one two three\n", "four\n", "\n")
	out := apply(t, WordCount(), [][][]byte{in}, 1)
	if len(out[0]) != 1 {
		t.Fatalf("wc emitted %d lines", len(out[0]))
	}
	var l, w, c int
	if _, err := fmt.Sscanf(string(out[0][0]), "%d %d %d", &l, &w, &c); err != nil {
		t.Fatal(err)
	}
	if l != 3 || w != 4 || c != 20 {
		t.Fatalf("wc = %d %d %d", l, w, c)
	}
}

func TestPaginate(t *testing.T) {
	in := make([][]byte, 5)
	for i := range in {
		in[i] = []byte(fmt.Sprintf("line%d\n", i))
	}
	out := apply(t, Paginate(2, "doc"), [][][]byte{in}, 1)
	// 5 lines at 2/page -> 3 headers + 5 lines = 8 items.
	if len(out[0]) != 8 {
		t.Fatalf("paginate emitted %d items: %v", len(out[0]), strs(out[0]))
	}
	if !strings.Contains(string(out[0][0]), "page 1") {
		t.Fatalf("first item not a header: %q", out[0][0])
	}
	if !strings.Contains(string(out[0][3]), "page 2") {
		t.Fatalf("fourth item not page-2 header: %q", out[0][3])
	}
}

func TestTee(t *testing.T) {
	in := lines("a\n", "b\n")
	out := apply(t, Tee(), [][][]byte{in}, 3)
	for i := 0; i < 3; i++ {
		if !equalItems(out[i], in) {
			t.Fatalf("tee output %d = %v", i, strs(out[i]))
		}
	}
}

func TestProgressReports(t *testing.T) {
	in := make([][]byte, 25)
	for i := range in {
		in[i] = []byte("x\n")
	}
	out := apply(t, Progress("job", 10), [][][]byte{in}, 2)
	if len(out[0]) != 25 {
		t.Fatalf("primary lost items: %d", len(out[0]))
	}
	// Reports at 10, 20, plus the final summary.
	if len(out[1]) != 3 {
		t.Fatalf("reports = %v", strs(out[1]))
	}
	if !strings.Contains(string(out[1][2]), "25 items, done") {
		t.Fatalf("summary = %q", out[1][2])
	}
	// Missing report channel is an error.
	if _, err := applyErr(Progress("job", 10), [][][]byte{in}, 1); err == nil {
		t.Fatal("Progress without report channel accepted")
	}
}

func TestWithReports(t *testing.T) {
	in := make([][]byte, 15)
	for i := range in {
		in[i] = []byte("x\n")
	}
	out := apply(t, WithReports("wrapped", 5, Identity()), [][][]byte{in}, 2)
	if len(out[0]) != 15 {
		t.Fatalf("primary = %d items", len(out[0]))
	}
	if len(out[1]) != 4 { // 5, 10, 15, done
		t.Fatalf("reports = %v", strs(out[1]))
	}
}

func TestCompare(t *testing.T) {
	a := lines("same\n", "left\n", "same2\n", "extraA\n")
	b := lines("same\n", "right\n", "same2\n")
	out := apply(t, Compare(), [][][]byte{a, b}, 1)
	got := strs(out[0])
	want := []string{"<2: left\n", ">2: right\n", "<4: extraA\n"}
	if !eqStrings(got, want) {
		t.Fatalf("compare = %v, want %v", got, want)
	}
	// Identical streams produce no output.
	out2 := apply(t, Compare(), [][][]byte{a, a}, 1)
	if len(out2[0]) != 0 {
		t.Fatalf("self-compare = %v", strs(out2[0]))
	}
	// One input is an error.
	if _, err := applyErr(Compare(), [][][]byte{a}, 1); err == nil {
		t.Fatal("Compare with one input accepted")
	}
}

func TestStreamEditor(t *testing.T) {
	text := lines("hello world\n", "delete me please\n", "goodbye world\n")
	script := lines("s/world/eden/\n", "d/delete/\n")
	out := apply(t, StreamEditor(), [][][]byte{text, script}, 1)
	got := strs(out[0])
	want := []string{"hello eden\n", "goodbye eden\n"}
	if !eqStrings(got, want) {
		t.Fatalf("sed = %v, want %v", got, want)
	}
	// Bad script is an error.
	bad := lines("x/nope/\n")
	if _, err := applyErr(StreamEditor(), [][][]byte{text, bad}, 1); err == nil {
		t.Fatal("bad edit command accepted")
	}
}

func TestParseEditCommand(t *testing.T) {
	cmd, err := ParseEditCommand([]byte("s/a/b/\n"))
	if err != nil || cmd.Kind != 's' || cmd.Pattern != "a" || cmd.Repl != "b" {
		t.Fatalf("parse s: %+v, %v", cmd, err)
	}
	cmd, err = ParseEditCommand([]byte("d/x/"))
	if err != nil || cmd.Kind != 'd' || cmd.Pattern != "x" {
		t.Fatalf("parse d: %+v, %v", cmd, err)
	}
	for _, bad := range []string{"", "s", "sab", "d//", "s//x/", "q/a/"} {
		if _, err := ParseEditCommand([]byte(bad)); err == nil {
			t.Errorf("ParseEditCommand(%q) accepted", bad)
		}
	}
}

func TestMerge(t *testing.T) {
	a := lines("a1\n", "a2\n")
	b := lines("b1\n")
	out := apply(t, Merge(), [][][]byte{a, b}, 1)
	if got := strs(out[0]); !eqStrings(got, []string{"a1\n", "a2\n", "b1\n"}) {
		t.Fatalf("merge = %v", got)
	}
}

func TestSplit(t *testing.T) {
	in := lines("data 1\n", "ERROR bad\n", "data 2\n", "ERROR worse\n")
	out := apply(t, Split("^ERROR"), [][][]byte{in}, 2)
	if got := strs(out[0]); !eqStrings(got, []string{"data 1\n", "data 2\n"}) {
		t.Fatalf("split primary = %v", got)
	}
	if got := strs(out[1]); !eqStrings(got, []string{"ERROR bad\n", "ERROR worse\n"}) {
		t.Fatalf("split secondary = %v", got)
	}
	// Bad pattern errors at run time (not panic).
	if _, err := applyErr(Split("(bad"), [][][]byte{in}, 2); err == nil {
		t.Fatal("bad split pattern accepted")
	}
	// One output is an error.
	if _, err := applyErr(Split("x"), [][][]byte{in}, 1); err == nil {
		t.Fatal("Split with one output accepted")
	}
}

func equalItems(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMapShapes: Map stays the one-to-many lift; the one-output filters
// go through mapOne, which must pass an empty item — even a nil one —
// exactly as Map's [][]byte{item} did, drop only what the filter drops,
// and allocate nothing per item of its own.
func TestMapShapes(t *testing.T) {
	split := Map(func(item []byte) [][]byte { return bytes.SplitAfter(item, []byte(",")) })
	out := apply(t, split, [][][]byte{lines("a,b,", "", "c")}, 1)
	if got := strs(out[0]); strings.Join(got, "|") != "a,|b,|||c" || len(got) != 5 {
		t.Fatalf("one-to-many Map: %q", got)
	}

	in := [][]byte{[]byte("x\n"), {}, nil, []byte("C drop\n"), []byte("y\n")}
	for name, body := range map[string]transput.Body{
		"identity": Identity(), "replace": Replace("z", "w"), "expand": ExpandTabs(4),
		"rot13": Rot13(), "upper": UpperCase(), "grep": Grep("^C", true), "strip": StripComments("C"),
	} {
		want := 5
		if name == "grep" || name == "strip" {
			want = 4
		}
		out := apply(t, body, [][][]byte{in}, 1)
		if len(out[0]) != want || len(out[0][1]) != 0 || len(out[0][2]) != 0 || len(out[0][want-1]) != 2 {
			t.Errorf("%s: %q, want %d items with the two empty ones kept", name, strs(out[0]), want)
		}
	}

	items, sink := lines("a\n", "b\n", "c\n", "d\n"), discard{}
	id := Identity()
	if n := testing.AllocsPerRun(100, func() {
		if err := id([]transput.ItemReader{transput.NewSliceReader(items)}, []transput.ItemWriter{sink}); err != nil {
			t.Fatal(err)
		}
	}); n > 2 { // the reader and the interface slices, not one per item
		t.Errorf("Identity over %d items: %.0f allocs", len(items), n)
	}
}

type discard struct{}

func (discard) Put([]byte) error           { return nil }
func (discard) Close() error               { return nil }
func (discard) CloseWithError(error) error { return nil }
