package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	sealib "repro"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// env is what a run holds besides the program under test: the workload, the
// generated dataset with its planted ground truth, and a scratch directory
// inside the checkout.
type env struct {
	w     *workload
	ds    *dataset.Generated
	dir   string
	size  sizing
	cfg   engine.Config
	touch []*op // firstTouch(w, ds)
}

func newEnv(w *workload, outDir string, size sizing) (*env, error) {
	ds, err := dataset.Homogeneous(w.dataset, 1.0)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	return &env{w: w, ds: ds, dir: dir, size: size, cfg: sealib.DefaultEngineConfig(), touch: firstTouch(w, ds)}, nil
}

func (e *env) cleanup() { os.RemoveAll(e.dir) }

// served is one running copy of the program: a packed snapshot of the
// workload's dataset mounted in a catalog behind the HTTP handler.
type served struct {
	cat      *sealib.Catalog
	handler  http.Handler
	snapshot string
	journal  string // "" when the workload does not journal

	// Set-up, stage by stage.
	packS     float64
	snapBytes int64
	mountMS   float64
	totalS    float64
}

// serve does everything the program does before it can take the first timed
// op: build the index and pack the snapshot, mount it (with a journal when
// the workload writes), and answer the first-touch requests. Generating the
// dataset is the benchmark's work, not the program's, and is not in here.
func (e *env) serve(sub string) (*served, error) {
	dir := filepath.Join(e.dir, sub)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &served{snapshot: filepath.Join(dir, e.w.dataset+".snap")}
	if e.w.journaled {
		s.journal = filepath.Join(dir, e.w.dataset+".journal")
	}
	t0 := time.Now()
	n, err := sealib.PackSnapshotFileOpts(e.ds.Graph, s.snapshot, sealib.PackOptions{Align: true})
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	s.packS, s.snapBytes = time.Since(t0).Seconds(), n

	t1 := time.Now()
	if _, err := e.mount(s); err != nil {
		return nil, err
	}
	s.mountMS = float64(time.Since(t1).Nanoseconds()) / 1e6

	if err := e.firstTouch(s); err != nil {
		return nil, err
	}
	s.totalS = time.Since(t0).Seconds()
	return s, nil
}

// firstTouch answers the workload's first-touch requests on s, closing it
// when one of them fails.
func (e *env) firstTouch(s *served) error {
	c := newCaller(s.handler)
	for _, o := range e.touch {
		if status, body, _, _ := c.call(o); status != http.StatusOK {
			s.cat.Close()
			return fmt.Errorf("first touch %s %s: status %d: %s", o.path, o.body, status, body)
		}
	}
	return nil
}

// mount opens s.snapshot (and replays s.journal) in a fresh catalog and
// returns the number of journal batches replayed.
func (e *env) mount(s *served) (replayed int, err error) {
	s.cat = sealib.NewCatalog()
	if s.journal == "" {
		if _, err := s.cat.MountPath(e.w.dataset, s.snapshot, e.cfg); err != nil {
			return 0, fmt.Errorf("mount: %w", err)
		}
	} else {
		d, n, err := s.cat.MountPathJournaled(e.w.dataset, s.snapshot, s.journal, e.cfg)
		if err != nil {
			return 0, fmt.Errorf("mount: %w", err)
		}
		// Background compaction rewrites the snapshot every 64 batches and
		// truncates the journal; it is left out so that journal growth per
		// mutation is a count and a run stays stationary.
		d.SetCompactEvery(0)
		replayed = n
	}
	s.handler = sealib.NewCatalogHTTPHandler(s.cat, e.cfg)
	return replayed, nil
}

// engine returns the engine currently serving the workload's dataset.
func (s *served) engine(e *env) *engine.Engine {
	eng, err := s.cat.Resolve(e.w.dataset)
	if err != nil {
		panic(err) // the dataset was mounted by this package
	}
	return eng
}

// setUp runs serve size.setupReps times and keeps the last copy. setup_s is
// the median of the repetitions, so one slow fsync does not decide it.
func (e *env) setUp() (*served, float64, error) {
	var kept *served
	times := make([]float64, 0, e.size.setupReps)
	for i := 0; i < e.size.setupReps; i++ {
		if kept != nil {
			if err := kept.cat.Close(); err != nil {
				return nil, 0, err
			}
		}
		s, err := e.serve(fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, 0, err
		}
		kept = s
		times = append(times, s.totalS)
	}
	return kept, median(times), nil
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}
