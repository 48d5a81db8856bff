package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// resultFile is what the suite leaves in benchmark/out: the header
// ROADMAP item 2 asks of every bench file — where, on what, from which
// commit, how many runs — and per workload × metric the median, min,
// max and sample count.
type resultFile struct {
	Host        string                    `json:"host"`
	NProc       int                       `json:"nproc"`
	GOMAXPROCS  int                       `json:"gomaxprocs"`
	GoVersion   string                    `json:"go_version"`
	Commit      string                    `json:"commit"`
	Seed        int64                     `json:"seed"`
	Repetitions int                       `json:"repetitions"`
	Workloads   map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Metrics  map[string]summary `json:"metrics"`
	PerLayer map[string]summary `json:"per_layer,omitempty"`
	// LatencySamples is the sample count behind item_latency_p50_us (and
	// p99/p999) in one repetition.
	LatencySamples int      `json:"item_latency_samples"`
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	FailedShare    float64  `json:"failed_share"`
	Why            []string `json:"why,omitempty"`
}

// gitCommit asks git for the checkout's commit; a tree that is not a
// repository (the harness's checkout) is "nogit".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}

func newResultFile(seed int64) *resultFile {
	host, _ := os.Hostname()
	return &resultFile{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(), Seed: seed, Repetitions: suiteReps, Workloads: make(map[string]workloadResult),
	}
}

func (f *resultFile) add(name string, o outcome) {
	wr := workloadResult{Metrics: o.metrics, LatencySamples: o.latSamples, Attempted: o.attempted, Failed: o.failed, Why: o.why}
	if o.attempted > 0 {
		wr.FailedShare = float64(o.failed) / float64(o.attempted)
	}
	if o.perLayer != nil {
		wr.PerLayer = make(map[string]summary, len(perLayer))
		for _, d := range perLayer {
			wr.PerLayer[d.name] = summarize([]float64{o.perLayer[d.name]}, d.unit)
		}
	}
	f.Workloads[name] = wr
}

// write stores the file as result-<commit>-<n>.json under dir, n the
// first number not taken.
func (f *resultFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("result-%s-%d.json", f.Commit, n))
		file, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, werr := file.Write(append(data, '\n'))
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		return path, werr
	}
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// The four verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges one workload × metric, b against base a, and returns
// the ratio of the reported figures beside it.  Where either side's repetitions
// spread wider than the bound and the two sides' ranges overlap, the
// runs cannot tell the two apart at that bound: unresolved, not
// unchanged.
func verdict(d metricDef, a, b summary) (string, float64) {
	base := a.Median
	if base == 0 {
		return verdictUnresolved, 0
	}
	ratio := b.Median / base
	worsening := ratio - 1
	if d.better == "higher" {
		worsening = -worsening
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case (a.spread() > d.bound || b.spread() > d.bound) && overlap:
		return verdictUnresolved, ratio
	case worsening > d.bound:
		return verdictWorse, ratio
	case worsening < -d.bound:
		return verdictBetter, ratio
	}
	return verdictWithin, ratio
}

// compareFiles prints one row per workload × end-to-end metric, every
// ratio with its base, and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (commit %s, %d repetitions on %s)\nnew  %s (commit %s, %d repetitions on %s)\n",
		pathA, a.Commit, a.Repetitions, a.Host, pathB, b.Commit, b.Repetitions, b.Host)
	for _, wl := range workloads {
		wa, okA := a.Workloads[wl.name]
		wb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-18s missing from one side\n", wl.name)
			continue
		}
		for _, d := range endToEnd {
			if d.name == "item_latency_p50_us" && !wl.gatesLatency {
				continue
			}
			ma, mb := wa.Metrics[d.name], wb.Metrics[d.name]
			v, ratio := verdict(d, ma, mb)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "%-18s %-20s %12s -> %-12s %-8s x%.3f of base %s (%s is better, bound %.0f%%)  %s\n",
				wl.name, d.name, trimFloat(ma.Median), trimFloat(mb.Median), d.unit,
				ratio, trimFloat(ma.Median), d.better, 100*d.bound, v)
		}
		// failed_share has an absolute bound: 0.
		v := verdictWithin
		if wb.Failed > 0 {
			v, worse = verdictWorse, true
		}
		fmt.Fprintf(w, "%-18s %-20s %12s -> %-12s ratio  (%d and %d of %d and %d operations), bound 0  %s\n",
			wl.name, "failed_share", trimFloat(wa.FailedShare), trimFloat(wb.FailedShare), wa.Failed, wb.Failed, wa.Attempted, wb.Attempted, v)
	}
	return worse, nil
}
