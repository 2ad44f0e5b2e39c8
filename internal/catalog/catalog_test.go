package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/store"
)

// makeEngine builds an engine over a generated analog.
func makeEngine(t testing.TB, name string, scale float64) *engine.Engine {
	t.Helper()
	d, err := dataset.Homogeneous(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(d.Graph, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// packFile writes an engine's snapshot to a temp file and returns the path.
func packFile(t testing.TB, eng *engine.Engine, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if _, err := eng.WriteSnapshotFile(path, store.PackOptions{}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMountResolveDefault(t *testing.T) {
	c := New()
	if _, err := c.Resolve(""); !errors.Is(err, cserr.ErrUnknownGraph) {
		t.Fatalf("empty catalog resolve: %v", err)
	}
	e1 := makeEngine(t, "facebook", 0.2)
	e2 := makeEngine(t, "github", 0.1)
	if _, err := c.Mount("fb", e1, engine.DefaultConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mount("gh", e2, engine.DefaultConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mount("fb", e2, engine.DefaultConfig(), "dup"); !errors.Is(err, cserr.ErrInvalidRequest) {
		t.Fatalf("duplicate mount: %v", err)
	}

	// First mount is the default.
	if got, _ := c.Resolve(""); got != e1 {
		t.Fatal("default did not resolve to the first mount")
	}
	if got, _ := c.Resolve("gh"); got != e2 {
		t.Fatal("named resolve missed")
	}
	if _, err := c.Resolve("nope"); !errors.Is(err, cserr.ErrUnknownGraph) {
		t.Fatalf("unknown name: %v", err)
	}
	if err := c.SetDefault("gh"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Resolve(""); got != e2 {
		t.Fatal("SetDefault not honored")
	}
	if got := c.Names(); len(got) != 2 || got[0] != "fb" || got[1] != "gh" {
		t.Fatalf("Names: %v", got)
	}
	if err := c.Unmount("fb"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve("fb"); !errors.Is(err, cserr.ErrUnknownGraph) {
		t.Fatalf("unmounted name still resolves: %v", err)
	}

	// Unmounting the default re-elects a remaining dataset; mounting into an
	// empty (default-less) catalog elects the newcomer.
	if _, err := c.Mount("aa", e1, engine.DefaultConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unmount("gh"); err != nil { // gh was the default
		t.Fatal(err)
	}
	if c.Default() != "aa" {
		t.Fatalf("default not re-elected: %q", c.Default())
	}
	if err := c.Unmount("aa"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mount("zz", e2, engine.DefaultConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	if c.Default() != "zz" {
		t.Fatalf("mount into empty catalog did not elect a default: %q", c.Default())
	}
}

// TestSwapDrainsOldEngine is the drain contract: a query that resolved its
// engine before the swap completes on that engine, while resolves after the
// swap see the new one.
func TestSwapDrainsOldEngine(t *testing.T) {
	c := New()
	e1 := makeEngine(t, "facebook", 0.2)
	e2 := makeEngine(t, "facebook", 0.3)
	if _, err := c.Mount("fb", e1, engine.DefaultConfig(), "v1"); err != nil {
		t.Fatal(err)
	}

	inFlight, err := c.Resolve("fb") // a request grabs its engine...
	if err != nil {
		t.Fatal(err)
	}
	old, err := c.Swap("fb", e2, "v2") // ...the dataset is swapped under it...
	if err != nil {
		t.Fatal(err)
	}
	if old != e1 {
		t.Fatal("Swap returned the wrong displaced engine")
	}
	// ...and the in-flight request still completes against the old engine.
	req := query.Request{Query: 0, Method: query.MethodStructural, K: 2}
	if _, err := inFlight.Query(context.Background(), req); err != nil {
		t.Fatalf("in-flight query on the drained engine: %v", err)
	}
	now, _ := c.Resolve("fb")
	if now != e2 {
		t.Fatal("post-swap resolve did not see the new engine")
	}
	if len(c.Infos()) != 1 || c.Infos()[0].Swaps != 1 {
		t.Fatalf("swap count not recorded: %+v", c.Infos())
	}
}

// TestConcurrentHotSwap hammers resolves and queries while the dataset is
// swapped between two snapshots of different sizes; every query must land
// coherently on one of the two (race detector verifies memory safety).
func TestConcurrentHotSwap(t *testing.T) {
	c := New()
	e1 := makeEngine(t, "facebook", 0.2) // 240 nodes
	e2 := makeEngine(t, "facebook", 0.4) // 480 nodes
	n1 := e1.Graph().NumNodes()
	n2 := e2.Graph().NumNodes()
	if _, err := c.Mount("fb", e1, engine.DefaultConfig(), "v1"); err != nil {
		t.Fatal(err)
	}

	const queriesPerWorker = 50
	var workers, swapper sync.WaitGroup
	stop := make(chan struct{})
	swapper.Add(1)
	go func() { // swapper
		defer swapper.Done()
		engines := [2]*engine.Engine{e2, e1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Swap("fb", engines[i%2], "swap"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < queriesPerWorker; i++ {
				eng, err := c.Resolve("fb")
				if err != nil {
					t.Error(err)
					return
				}
				n := eng.Graph().NumNodes()
				if n != n1 && n != n2 {
					t.Errorf("resolved engine has %d nodes, want %d or %d", n, n1, n2)
					return
				}
				// The grabbed engine stays coherent for the whole request
				// even if the catalog swaps meanwhile.
				req := query.Request{Query: 0, Method: query.MethodStructural, K: 2}
				out, err := eng.Query(context.Background(), req)
				if err != nil {
					t.Errorf("query during swap: %v", err)
					return
				}
				for _, v := range out.Community {
					if int(v) >= n {
						t.Errorf("community node %d outside the resolved %d-node graph", v, n)
						return
					}
				}
			}
		}()
	}
	workers.Wait() // all queries completed across ongoing swaps
	close(stop)
	swapper.Wait()
}

func TestMountPathAndManifest(t *testing.T) {
	e1 := makeEngine(t, "facebook", 0.2)
	snapPath := packFile(t, e1, "fb.snap")

	// Text path for the second dataset.
	d2, err := dataset.Homogeneous("github", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := dataset.WriteGraph(&text, d2.Graph); err != nil {
		t.Fatal(err)
	}
	textPath := filepath.Join(t.TempDir(), "gh.txt")
	if err := os.WriteFile(textPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	manifest := `{"default":"gh","datasets":[
		{"name":"fb","path":` + jsonStr(snapPath) + `},
		{"name":"gh","path":` + jsonStr(textPath) + `,"gamma":0.7}
	]}`
	if err := os.WriteFile(manifestPath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	if err := c.MountManifest(m, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if c.Default() != "gh" {
		t.Fatalf("manifest default: %q", c.Default())
	}
	fb, err := c.Resolve("fb")
	if err != nil {
		t.Fatal(err)
	}
	if fb.Graph().NumNodes() != e1.Graph().NumNodes() {
		t.Fatal("snapshot mount has the wrong shape")
	}
	gh, err := c.Resolve("gh")
	if err != nil {
		t.Fatal(err)
	}
	if gh.Metric().Gamma() != 0.7 {
		t.Fatalf("per-entry gamma not applied: %v", gh.Metric().Gamma())
	}

	// SwapPath with a corrupt file must leave the running engine in place.
	// The snapshot mounts mapped, whose O(1) open validates the header and
	// section table — a torn file — while a payload bit flip is the fully
	// checksummed heap open's to catch.
	data, _ := os.ReadFile(snapPath)
	torn := filepath.Join(t.TempDir(), "torn.snap")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SwapPath("fb", torn, engine.DefaultConfig()); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
		t.Fatalf("corrupt swap: %v", err)
	}
	still, _ := c.Resolve("fb")
	if still != fb {
		t.Fatal("corrupt swap disturbed the running engine")
	}
	flipped := filepath.Join(t.TempDir(), "flipped.snap")
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	heap := New()
	heap.SetMmap(false)
	if _, err := heap.MountPath("fb", flipped, engine.DefaultConfig()); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
		t.Fatalf("bit-flipped heap mount: %v", err)
	}
}

func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
