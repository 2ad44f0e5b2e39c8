package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesAndComparesRecords runs two experiments twice, the second run
// comparing its wall times against the first run's records.
func TestRunWritesAndComparesRecords(t *testing.T) {
	dir := t.TempDir()
	first, second := filepath.Join(dir, "first.json"), filepath.Join(dir, "second.json")
	args := []string{"-exp", "table1,fig5d", "-scale", "0.1", "-queries", "1", "-out"}
	if code := run(append(args, first), io.Discard); code != 0 {
		t.Fatalf("first run exited %d", code)
	}
	var out strings.Builder
	if code := run(append(args, second, "-compare", first), &out); code != 0 {
		t.Fatalf("second run exited %d", code)
	}
	if !strings.Contains(out.String(), "wall-clock vs "+first) {
		t.Errorf("second run printed no comparison:\n%s", out.String())
	}
	for _, path := range []string{first, second} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var records []struct {
			Experiment string          `json:"experiment"`
			Result     json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &records); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var names []string
		for _, r := range records {
			names = append(names, r.Experiment)
			if len(r.Result) == 0 || string(r.Result) == "null" || string(r.Result) == "[]" {
				t.Errorf("%s: %s has no result rows", path, r.Experiment)
			}
		}
		if strings.Join(names, ",") != "table1,fig5d" {
			t.Errorf("%s: experiments %v, want table1, fig5d in runner order", path, names)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if code := run([]string{"-exp", "table1,nope"}, io.Discard); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
}
