// Command transput-vet runs the module's custom static analyzers
// (internal/analysis) over the whole repository:
//
//	transput-vet                      # run every analyzer over the module
//	transput-vet -run slab            # only analyzers matching the regex
//	transput-vet -list                # list analyzers and exit
//	transput-vet -json                # findings as a JSON array on stdout
//	transput-vet -github              # findings as GitHub workflow annotations
//	transput-vet -protomodel-selftest # verify the model checker catches its
//	                                  # own seeded mutants, then exit
//
// Diagnostics print as file:line:col: [analyzer] message; any finding
// exits 1, which is how `make vet-custom` gates CI.
//
// The protomodel exploration bounds are tunable for the nightly deep
// run: -protomodel-window, -protomodel-writers and
// -protomodel-max-states override the defaults (4, 2, 4M), and
// -protomodel-stats FILE writes the explored-space summary
// (states/transitions/violations) of the exploration the run made —
// protomodel's, or the self-test's clean one — as JSON for upload as a
// CI artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"asymstream/internal/analysis"
)

// jsonDiag is the -json wire shape: flat, stable field names, one
// object per finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// githubEscape makes a message safe for the workflow-command data
// section, which terminates on a raw newline and decodes %xx.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func main() {
	var (
		dir     = flag.String("dir", ".", "module root to analyze")
		run     = flag.String("run", "", "regex selecting analyzers to run (default all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		asJSON  = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		github  = flag.Bool("github", false, "emit findings as GitHub ::error annotations")
		pmWin   = flag.Int("protomodel-window", analysis.ProtoWindow, "protomodel: window size K")
		pmWr    = flag.Int("protomodel-writers", analysis.ProtoWriters, "protomodel: concurrent writers P")
		pmMax   = flag.Int("protomodel-max-states", analysis.ProtoMaxStates, "protomodel: exploration state cap")
		pmSelf  = flag.Bool("protomodel-selftest", false, "run the seeded-mutant self-test and exit")
		pmStats = flag.String("protomodel-stats", "", "write protomodel exploration stats as JSON to this file")
	)
	flag.Parse()

	analysis.ProtoWindow = *pmWin
	analysis.ProtoWriters = *pmWr
	analysis.ProtoMaxStates = *pmMax

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *pmSelf {
		if err := analysis.ProtoModelSelfTest(*pmWin, *pmWr, *pmMax); err != nil {
			fmt.Fprintf(os.Stderr, "transput-vet: protomodel self-test FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("protomodel self-test ok: clean protocol explores clean at K=%d P=%d; all 3 seeded mutants detected\n", *pmWin, *pmWr)
		if *pmStats != "" {
			if err := writeStats(*pmStats); err != nil {
				fmt.Fprintf(os.Stderr, "transput-vet: %v\n", err)
				os.Exit(2)
			}
		}
		return
	}

	selected := all
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "transput-vet: bad -run regex: %v\n", err)
			os.Exit(2)
		}
		selected = nil
		for _, a := range all {
			if re.MatchString(a.Name) {
				selected = append(selected, a)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "transput-vet: no analyzers match %q\n", *run)
			os.Exit(2)
		}
	}

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "transput-vet: %v\n", err)
		os.Exit(2)
	}
	prog, err := loader.Load()
	if err != nil {
		fmt.Fprintf(os.Stderr, "transput-vet: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(prog, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "transput-vet: %v\n", err)
		os.Exit(2)
	}

	switch {
	case *asJSON:
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "transput-vet: %v\n", err)
			os.Exit(2)
		}
	case *github:
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column,
				githubEscape(fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)))
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	if *pmStats != "" {
		if err := writeStats(*pmStats); err != nil {
			fmt.Fprintf(os.Stderr, "transput-vet: %v\n", err)
			os.Exit(2)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "transput-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func writeStats(path string) error {
	if analysis.ProtoLastRun == nil {
		return fmt.Errorf("-protomodel-stats: protomodel did not run (select it with -run)")
	}
	data, err := json.MarshalIndent(analysis.ProtoLastRun, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
