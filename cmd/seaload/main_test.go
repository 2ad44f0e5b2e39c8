package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestFireClassifies: fire's class for each status a server can answer and
// for a port nothing listens on.
func TestFireClassifies(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		http.Error(w, http.StatusText(status), status)
	}))
	defer ts.Close()
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()

	hc := &http.Client{}
	for _, c := range []struct {
		url, want string
	}{
		{ts.URL + "/200", ""},
		{ts.URL + "/404", ""},
		{ts.URL + "/429", "shed_429"},
		{ts.URL + "/500", "http_5xx"},
		{ts.URL + "/400", "http_4xx"},
		{closed.URL + "/search", "refused"},
	} {
		if got := fire(hc, c.url, []byte(`{"q":0,"k":2}`)); got != c.want {
			t.Errorf("fire(%s) = %q, want %q", c.url, got, c.want)
		}
	}
}

// TestMergeRecord: a record replaces the same-name record in place, leaves a
// seabench record beside it intact (result and mean_delta included) and
// appends a new name at the end; a missing file is created.
func TestMergeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_new.json")
	seabench := `{"experiment":"fig6","wall_seconds":1.25,"mean_delta":0.125,` +
		`"result":[{"Method":"sea","Delta":0.125,"Rows":[1,2,3]},{"Method":"exact","Delta":0.1}]}`
	if err := os.WriteFile(path, []byte(`[`+seabench+`,
		{"experiment":"seaload/read-heavy","wall_seconds":5,"result":{"p99_us":900}},
		{"experiment":"table1","wall_seconds":0.5}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeRecord(path, loadRecord{Experiment: "seaload/read-heavy", WallSeconds: 6,
		Result: map[string]any{"p99_us": 700.0}}); err != nil {
		t.Fatal(err)
	}
	if err := mergeRecord(path, loadRecord{Experiment: "seaload/mixed", WallSeconds: 7}); err != nil {
		t.Fatal(err)
	}

	var got []map[string]any
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range got {
		names = append(names, r["experiment"].(string))
	}
	if want := []string{"fig6", "seaload/read-heavy", "table1", "seaload/mixed"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("records %q, want %q", names, want)
	}
	var want map[string]any
	if err := json.Unmarshal([]byte(seabench), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("seabench record changed:\n got %v\nwant %v", got[0], want)
	}
	if got[1]["wall_seconds"] != 6.0 || got[1]["result"].(map[string]any)["p99_us"] != 700.0 {
		t.Fatalf("read-heavy record not replaced: %v", got[1])
	}

	fresh := filepath.Join(t.TempDir(), "absent.json")
	if err := mergeRecord(fresh, loadRecord{Experiment: "seaload/mixed"}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(fresh); err != nil || !strings.Contains(string(data), `"seaload/mixed"`) {
		t.Fatalf("missing file not created with the record: %s, %v", data, err)
	}
}
