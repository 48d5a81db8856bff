package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"asymstream/internal/analysis"
)

// TestWriteStatsWritesLastRun pins -protomodel-stats to the
// exploration the run already made: the file holds ProtoLastRun as
// is (a fresh exploration could not reproduce these made-up counts),
// and with no run to report it fails without writing anything.
func TestWriteStatsWritesLastRun(t *testing.T) {
	saved := analysis.ProtoLastRun
	defer func() { analysis.ProtoLastRun = saved }()
	dir := t.TempDir()

	analysis.ProtoLastRun = nil
	missing := filepath.Join(dir, "none.json")
	if err := writeStats(missing); err == nil {
		t.Error("writeStats with no protomodel run succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("writeStats with no protomodel run left a file (stat err %v)", err)
	}

	want := &analysis.ProtoModelReport{
		Window: 3, Writers: 2, Cap: 7,
		States: 12345, Transitions: 67890, Capped: true,
		Violations: []string{"I9: seeded"},
	}
	analysis.ProtoLastRun = want
	path := filepath.Join(dir, "stats.json")
	if err := writeStats(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got analysis.ProtoModelReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("stats file is not a report: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("stats file = %+v, want the last run %+v", got, *want)
	}
}
