// Package filters provides the library of stream filters with which
// the experiments and examples assemble pipelines.
//
// §3 of the paper: "A large number of utilities in a typical operating
// system may be described as filters.  A filter is a program which
// takes a single stream of input and produces a single stream of
// output; the output is some transformation of the input. ... Text
// formatters, stream editors, spelling checkers, prettyprinters and
// paginators are all filters."
//
// Every filter here is a transput.Body constructor, so the same filter
// runs unchanged under the read-only, write-only and conventional
// disciplines: under the asymmetric disciplines the filter is a *pure
// transformer* ("they do not also pump data, unlike Unix programs",
// §4) — the pumping is done by the sink (read-only) or source
// (write-only).
//
// Items are treated as text lines (the classic Unix record); filters
// that need different framing say so in their comments.
package filters

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"sort"

	"asymstream/internal/transput"
)

// forEach drains ins[0], applying fn to every item.  It is the shared
// skeleton of all one-in filters.
func forEach(in transput.ItemReader, fn func(item []byte) error) error {
	for {
		item, err := in.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(item); err != nil {
			return err
		}
	}
}

// Map lifts a per-item transformation (returning zero or more output
// items per input item) into a Body.
func Map(fn func(item []byte) [][]byte) transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		return forEach(ins[0], func(item []byte) error {
			for _, out := range fn(item) {
				// The body owns items surfaced by Next and anything fn
				// derives from them, so hand ownership downstream: a
				// writer that can store the slice itself skips the copy.
				if err := transput.PutOwned(outs[0], out); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// mapOne is Map for a transformation with at most one output item per
// input item — most filters — without a result slice per datum.  fn
// reports false to drop the item; the output itself may be empty or nil,
// which is an item like any other.
func mapOne(fn func(item []byte) ([]byte, bool)) transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		return forEach(ins[0], func(item []byte) error {
			out, ok := fn(item)
			if !ok {
				return nil
			}
			return transput.PutOwned(outs[0], out) // ownership as in Map
		})
	}
}

// Identity copies input to output unchanged.
func Identity() transput.Body {
	return mapOne(func(item []byte) ([]byte, bool) { return item, true })
}

// UpperCase maps every item to upper case.
func UpperCase() transput.Body {
	return mapOne(func(item []byte) ([]byte, bool) { return bytes.ToUpper(item), true })
}

// LowerCase maps every item to lower case.
func LowerCase() transput.Body {
	return mapOne(func(item []byte) ([]byte, bool) { return bytes.ToLower(item), true })
}

// StripComments omits lines beginning with prefix — the paper's own
// example: "a program whose output is a copy of its input except that
// all lines beginning with 'C' have been omitted.  Such a filter might
// be used to strip comment lines from a Fortran program" (§3).
func StripComments(prefix string) transput.Body {
	p := []byte(prefix)
	return mapOne(func(item []byte) ([]byte, bool) { return item, !bytes.HasPrefix(item, p) })
}

// Grep passes only lines matching pattern (inverted when invert is
// set) — the paper's parameterised generalisation: "a more useful
// program is one which deletes all lines matching a pattern given as
// an argument" (§3).  The pattern must compile; Grep panics otherwise,
// so misconfiguration surfaces at pipeline build time.
func Grep(pattern string, invert bool) transput.Body {
	re := regexp.MustCompile(pattern)
	return mapOne(func(item []byte) ([]byte, bool) {
		// Match against the line content, excluding the terminator, so
		// anchors like "7$" behave as in grep(1).
		line := bytes.TrimSuffix(item, []byte("\n"))
		return item, re.Match(line) != invert
	})
}

// Replace substitutes all matches of pattern with repl in each line.
func Replace(pattern, repl string) transput.Body {
	re := regexp.MustCompile(pattern)
	r := []byte(repl)
	return mapOne(func(item []byte) ([]byte, bool) { return re.ReplaceAll(item, r), true })
}

// Rot13 applies the classic involution to ASCII letters.
func Rot13() transput.Body {
	return mapOne(func(item []byte) ([]byte, bool) {
		out := make([]byte, len(item))
		for i, c := range item {
			switch {
			case c >= 'a' && c <= 'z':
				out[i] = 'a' + (c-'a'+13)%26
			case c >= 'A' && c <= 'Z':
				out[i] = 'A' + (c-'A'+13)%26
			default:
				out[i] = c
			}
		}
		return out, true
	})
}

// ExpandTabs replaces tab characters with spaces up to the next
// multiple of width.
func ExpandTabs(width int) transput.Body {
	if width <= 0 {
		width = 8
	}
	return mapOne(func(item []byte) ([]byte, bool) {
		var out bytes.Buffer
		col := 0
		for _, c := range item {
			switch c {
			case '\t':
				n := width - col%width
				for j := 0; j < n; j++ {
					out.WriteByte(' ')
				}
				col += n
			case '\n':
				out.WriteByte(c)
				col = 0
			default:
				out.WriteByte(c)
				col++
			}
		}
		return out.Bytes(), true
	})
}

// LineNumber prefixes each line with its 1-based ordinal.
func LineNumber() transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		n := 0
		return forEach(ins[0], func(item []byte) error {
			n++
			return outs[0].Put(append([]byte(fmt.Sprintf("%6d  ", n)), item...))
		})
	}
}

// Head passes the first n items, then stops.  Under the read-only
// discipline this is the showcase for demand-driven transput: once
// Head stops pulling, nothing upstream computes (beyond its bounded
// anticipation), and the stage harness cancels the upstream stream.
func Head(n int) transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		for i := 0; i < n; i++ {
			item, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := outs[0].Put(item); err != nil {
				return err
			}
		}
		return nil
	}
}

// Tail retains only the final n items; it necessarily buffers n items
// and emits nothing until its input ends.
func Tail(n int) transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		ring := make([][]byte, 0, n)
		err := forEach(ins[0], func(item []byte) error {
			if n == 0 {
				return nil
			}
			if len(ring) == n {
				copy(ring, ring[1:])
				ring = ring[:n-1]
			}
			ring = append(ring, item)
			return nil
		})
		if err != nil {
			return err
		}
		for _, item := range ring {
			if err := outs[0].Put(item); err != nil {
				return err
			}
		}
		return nil
	}
}

// Uniq suppresses adjacent duplicate items.
func Uniq() transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		var prev []byte
		have := false
		return forEach(ins[0], func(item []byte) error {
			if have && bytes.Equal(item, prev) {
				return nil
			}
			prev = append(prev[:0], item...)
			have = true
			return outs[0].Put(item)
		})
	}
}

// SortLines buffers the whole stream and emits it sorted — a filter
// that can do no useful anticipatory work until end of input, the
// worst case for pipeline overlap.
func SortLines() transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		var all [][]byte
		if err := forEach(ins[0], func(item []byte) error {
			all = append(all, item)
			return nil
		}); err != nil {
			return err
		}
		sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i], all[j]) < 0 })
		for _, item := range all {
			if err := outs[0].Put(item); err != nil {
				return err
			}
		}
		return nil
	}
}

// WordCount consumes the stream and emits a single summary line in
// the style of wc: lines, words, bytes.
func WordCount() transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		var lines, words, chars int
		if err := forEach(ins[0], func(item []byte) error {
			lines++
			words += len(bytes.Fields(item))
			chars += len(item)
			return nil
		}); err != nil {
			return err
		}
		return outs[0].Put([]byte(fmt.Sprintf("%7d %7d %7d\n", lines, words, chars)))
	}
}

// Paginate groups lines into pages of pageLen lines, inserting a
// header line before each page — the paper's paginator: "If a
// paginated listing were required, the printer server would be
// requested to read from the paginator, and the paginator to read
// from the file" (§4).
func Paginate(pageLen int, title string) transput.Body {
	if pageLen <= 0 {
		pageLen = 60
	}
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		line, page := 0, 0
		return forEach(ins[0], func(item []byte) error {
			if line%pageLen == 0 {
				page++
				hdr := fmt.Sprintf("\f--- %s --- page %d ---\n", title, page)
				if err := outs[0].Put([]byte(hdr)); err != nil {
					return err
				}
			}
			line++
			return outs[0].Put(item)
		})
	}
}
