// Package catalog maintains a named registry of loaded datasets, each backed
// by its own engine.Engine, and is what turns the single-graph serving stack
// into a multi-dataset one. A Catalog mounts datasets from packed snapshots
// (internal/store) or text-format files, resolves request routing for the
// HTTP layer (the wire request's "graph" field), and hot-swaps a dataset's
// engine atomically: the new snapshot is loaded and validated off to the
// side, one pointer flip publishes it, and in-flight queries drain on the
// old engine — they hold its pointer for the whole request — while every new
// request lands on the new one.
//
// A manifest file (JSON) lists the datasets to mount at boot, so a serving
// process restarts into its full catalog with zero recomputation:
//
//	{
//	  "default": "facebook",
//	  "datasets": [
//	    {"name": "facebook", "path": "facebook.snap"},
//	    {"name": "github",   "path": "github.snap", "gamma": 0.7}
//	  ]
//	}
package catalog

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/commit"
	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/mutate"
	"repro/internal/store"
)

// Dataset is one mounted dataset: a name bound to a hot-swappable engine.
type Dataset struct {
	name string
	eng  atomic.Pointer[engine.Engine]
	cfg  engine.Config

	// commit is the dataset's group-commit batcher: every Mutate enqueues
	// here and concurrent callers coalesce into one flush (one journal
	// record, one engine generation). Created at Mount before the dataset
	// is visible and immutable afterwards, so reads need no lock; Unmount
	// and Close close it.
	commit *commit.Batcher

	mu      sync.Mutex // serializes swaps and mutations (readers go through eng alone)
	source  string
	swaps   uint64
	live    *liveState     // journaling state; nil when mounted without a journal
	mounted *store.Mounted // backing mapping (heap mounts: only the source's Info); nil for a bare engine
}

// packOptions is the layout compaction and replication write the dataset
// in: the variant its source snapshot was packed as, so a compressed dataset
// stays compressed (and a mapped one mappable) across both. Text sources and
// bare engines write plain aligned v2. The caller holds d.mu.
func (d *Dataset) packOptions() store.PackOptions {
	return store.PackOptions{Compress: d.mounted != nil && d.mounted.Info.Compressed}
}

// Engine returns the dataset's current engine. The pointer stays valid for
// as long as the caller holds it, across any number of concurrent swaps —
// use one grab per request so the request sees one consistent snapshot.
func (d *Dataset) Engine() *engine.Engine { return d.eng.Load() }

// Name returns the dataset's catalog name.
func (d *Dataset) Name() string { return d.name }

// Swaps returns how many hot-swaps the dataset has taken since mount — its
// replication lineage.
func (d *Dataset) Swaps() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.swaps
}

// Info is the describable state of a mounted dataset.
type Info struct {
	Name    string `json:"name"`
	Default bool   `json:"default"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	NumDim  int    `json:"num_dim"`
	Source  string `json:"source,omitempty"`
	Swaps   uint64 `json:"swaps"`
	// Version is the engine's graph generation (mutation batches applied
	// since the engine was built).
	Version uint64 `json:"version"`
	// Journal is the write-ahead journal path ("" when unjournaled);
	// JournalSeq is its last written sequence number and JournalBatches the
	// batches awaiting compaction. Version − JournalSeq is the oldest
	// replication cursor a journal tail can serve, so comparing a replica's
	// cursor against these two fields reads off its catch-up lag.
	Journal        string `json:"journal,omitempty"`
	JournalSeq     uint64 `json:"journal_seq,omitempty"`
	JournalBatches int    `json:"journal_batches,omitempty"`
	CompactError   string `json:"compact_error,omitempty"`
	// Mapped reports that the dataset's base snapshot serves zero-copy from
	// a read-only memory mapping; MappedBytes is the mapping size (the
	// resident bound — pages materialize from the page cache on demand).
	Mapped      bool         `json:"mapped"`
	MappedBytes int64        `json:"mapped_bytes,omitempty"`
	Stats       engine.Stats `json:"stats"`
	// Commit is the dataset's group-commit batcher state: queue depth,
	// shed/flush counters, and (for /metrics, excluded from JSON) the
	// batch-size, queue-wait and flush-latency histograms.
	Commit commit.Stats `json:"commit"`
	// Latency carries the engine's full-resolution stage histograms for the
	// /metrics exposition; it is deliberately excluded from the /graphs JSON
	// (use /stats for the flat percentile summary).
	Latency engine.LatencyStats `json:"-"`
}

// Catalog is a concurrency-safe named registry of datasets. The zero value
// is not usable; call New.
type Catalog struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
	def      string
	// view is datasets and def as a resolve reads them, republished under mu
	// by every change, so that a resolve takes no lock: a read-lock is a
	// write every request would make to state every other request shares.
	view    atomic.Pointer[resolveView]
	mmapOff bool
	// retired holds mappings displaced by Swap/Unmount. They are never
	// unmapped while the process serves — an in-flight query may still hold
	// the old engine over them — only at Close.
	retired []*store.Mounted
}

// resolveView is an immutable copy of the catalog's name table.
type resolveView struct {
	datasets map[string]*Dataset
	def      *Dataset
}

// lookup resolves name ("" for the default); nil when it names nothing.
func (v *resolveView) lookup(name string) *Dataset {
	if name == "" {
		return v.def
	}
	return v.datasets[name]
}

// New returns an empty catalog. Snapshot mounts serve zero-copy from memory
// mappings where the format and platform allow; SetMmap(false) disables
// that, forcing heap opens.
func New() *Catalog {
	c := &Catalog{datasets: make(map[string]*Dataset)}
	c.publishLocked()
	return c
}

// publishLocked republishes the resolve view after a change to datasets or
// def; the caller holds c.mu.
func (c *Catalog) publishLocked() {
	c.view.Store(&resolveView{datasets: maps.Clone(c.datasets), def: c.datasets[c.def]})
}

// SetMmap enables or disables zero-copy mapped serving for subsequent
// mounts (enabled by default). Already-mounted datasets are unaffected.
func (c *Catalog) SetMmap(enabled bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mmapOff = !enabled
}

// retireLocked parks a displaced mapping for unmapping at Close; the caller
// holds c.mu. Heap-resident handles have nothing to release and are dropped.
func (c *Catalog) retireLocked(m *store.Mounted) {
	if m.Mapped() {
		c.retired = append(c.retired, m)
	}
}

// Mount registers eng under name. The first mounted dataset becomes the
// default. Mounting an existing name is an error; use Swap to replace.
func (c *Catalog) Mount(name string, eng *engine.Engine, cfg engine.Config, source string) (*Dataset, error) {
	if name == "" {
		return nil, cserr.Invalidf("catalog: empty dataset name")
	}
	if eng == nil {
		return nil, cserr.Invalidf("catalog: nil engine for %q", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.datasets[name]; ok {
		return nil, cserr.Invalidf("catalog: dataset %q already mounted", name)
	}
	d := &Dataset{name: name, cfg: cfg, source: source}
	eng.SetName(name) // attribute spans, slow-query lines and metrics
	d.eng.Store(eng)
	// The group-commit batcher must exist before the dataset is visible:
	// Mutate reads d.commit without a lock.
	d.commit = commit.New(func(groups [][]mutate.Delta) []commit.Result {
		return c.flushGroups(d, groups)
	})
	c.datasets[name] = d
	if c.def == "" {
		c.def = name
	}
	c.publishLocked()
	return d, nil
}

// Swap atomically replaces the engine of a mounted dataset and returns the
// engine it displaced. In-flight queries that already resolved the old
// engine complete on it; every later resolve sees the new one. The flip
// happens under the catalog lock, so a concurrent Unmount cannot race the
// new engine onto a dataset that is no longer mounted.
func (c *Catalog) Swap(name string, eng *engine.Engine, source string) (*engine.Engine, error) {
	return c.swapMounted(name, eng, source, nil)
}

// swapMounted is Swap carrying the new engine's backing mapping (nil for
// heap-resident engines).
func (c *Catalog) swapMounted(name string, eng *engine.Engine, source string, m *store.Mounted) (*engine.Engine, error) {
	if eng == nil {
		return nil, cserr.Invalidf("catalog: nil engine for %q", name)
	}
	// Drain the batcher before the flip so no coalesced flush lands astride
	// the lineage change (its journal record would describe the old engine,
	// the reset journal the new). Done before taking any lock: the drain
	// waits out an in-flight flush, which itself takes d.mu.
	if d, err := c.dataset(name); err == nil {
		d.commit.Drain()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	d, err := c.datasetLocked(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	eng.SetName(name)
	old := d.eng.Swap(eng)
	d.source = source
	d.swaps++
	// The displaced engine may still be answering in-flight queries over the
	// old mapping; park it for unmapping at Close instead of unmapping now.
	c.retireLocked(d.mounted)
	d.mounted = m
	// A swap rebases the dataset on a new source: journaled deltas applied
	// to the old lineage no longer describe it, so the journal restarts —
	// and a broken-journal quarantine lifts, since the new lineage has no
	// semantic hole.
	if d.live != nil {
		if err := d.live.journal.Reset(); err != nil {
			return old, fmt.Errorf("catalog: swapped, but resetting journal: %w", err)
		}
		d.live.broken = false
	}
	return old, nil
}

// Unmount removes a dataset. In-flight queries on its engine complete; the
// name stops resolving immediately. Unmounting the default re-elects the
// lexicographically first remaining dataset as the new default (none when
// the catalog empties).
func (c *Catalog) Unmount(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.datasets[name]
	if !ok {
		return fmt.Errorf("%w: %q", cserr.ErrUnknownGraph, name)
	}
	delete(c.datasets, name)
	if c.def == name {
		c.def = ""
		if names := c.names(); len(names) > 0 {
			c.def = names[0]
		}
	}
	c.publishLocked()
	// Closing the batcher flushes everything already acknowledged into the
	// queue, then stops it; later Submits fail with commit.ErrClosed. Must
	// happen before d.mu is taken — an in-flight flush holds it.
	d.commit.Close()
	d.mu.Lock()
	if d.live != nil {
		d.live.journal.Close()
		d.live = nil
	}
	// In-flight queries may still hold the unmounted engine; its mapping is
	// only released at Close.
	c.retireLocked(d.mounted)
	d.mounted = nil
	d.mu.Unlock()
	return nil
}

// SetDefault names the dataset an empty-name resolve routes to.
func (c *Catalog) SetDefault(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.datasets[name]; !ok {
		return fmt.Errorf("%w: %q", cserr.ErrUnknownGraph, name)
	}
	c.def = name
	c.publishLocked()
	return nil
}

// Default returns the default dataset's name ("" when none is set).
func (c *Catalog) Default() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.def
}

// dataset looks a name up, resolving "" to the default. A name that
// resolves takes no lock; one that does not is explained under it.
func (c *Catalog) dataset(name string) (*Dataset, error) {
	if d := c.view.Load().lookup(name); d != nil {
		return d, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.datasetLocked(name)
}

// datasetLocked is dataset for callers already holding c.mu.
func (c *Catalog) datasetLocked(name string) (*Dataset, error) {
	if name == "" {
		name = c.def
		if name == "" {
			if len(c.datasets) == 0 {
				return nil, fmt.Errorf("%w: no datasets mounted", cserr.ErrUnknownGraph)
			}
			return nil, fmt.Errorf("%w: no default dataset; name one of %v", cserr.ErrUnknownGraph, c.names())
		}
	}
	d, ok := c.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", cserr.ErrUnknownGraph, name)
	}
	return d, nil
}

// Resolve maps a dataset name (empty = default) to its current engine; it is
// the httpapi.Resolver of this catalog, so one grab serves one request.
func (c *Catalog) Resolve(name string) (*engine.Engine, error) {
	d, err := c.dataset(name)
	if err != nil {
		return nil, err
	}
	return d.Engine(), nil
}

// Names returns the mounted dataset names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.names()
}

func (c *Catalog) names() []string {
	out := make([]string, 0, len(c.datasets))
	for name := range c.datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of mounted datasets.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.datasets)
}

// Infos describes every mounted dataset, sorted by name.
func (c *Catalog) Infos() []Info {
	c.mu.RLock()
	def := c.def
	ds := make([]*Dataset, 0, len(c.datasets))
	for _, d := range c.datasets {
		ds = append(ds, d)
	}
	c.mu.RUnlock()
	sort.Slice(ds, func(i, j int) bool { return ds[i].name < ds[j].name })
	out := make([]Info, len(ds))
	for i, d := range ds {
		out[i] = d.info(def)
	}
	return out
}

// InfoFor describes the named dataset ("" resolves to the default).
func (c *Catalog) InfoFor(name string) (Info, error) {
	d, err := c.dataset(name)
	if err != nil {
		return Info{}, err
	}
	return d.info(c.Default()), nil
}

// info builds the dataset's Info snapshot; def is the catalog's current
// default name.
func (d *Dataset) info(def string) Info {
	eng := d.Engine()
	g := eng.Graph()
	d.mu.Lock()
	source, swaps := d.source, d.swaps
	var journal string
	var seq uint64
	var batches int
	var compactErr string
	if d.live != nil {
		journal = d.live.journal.Path()
		seq = d.live.journal.Seq()
		batches = d.live.journal.Batches()
		if d.live.compactErr != nil {
			compactErr = d.live.compactErr.Error()
		}
	}
	mapped := d.mounted.Mapped()
	mappedBytes := d.mounted.MappedBytes()
	d.mu.Unlock()
	return Info{
		Name:           d.name,
		Default:        d.name == def,
		Nodes:          g.NumNodes(),
		Edges:          g.NumEdges(),
		NumDim:         g.NumDim(),
		Source:         source,
		Swaps:          swaps,
		Version:        eng.Version(),
		Journal:        journal,
		JournalSeq:     seq,
		JournalBatches: batches,
		CompactError:   compactErr,
		Mapped:         mapped,
		MappedBytes:    mappedBytes,
		Stats:          eng.Stats(),
		Commit:         d.commit.Stats(),
		Latency:        eng.Latency(),
	}
}

// openPath builds an engine from the file at path: a packed snapshot opens
// with zero recomputation — zero-copy mapped when the format and platform
// allow and mmap is enabled — anything else is parsed as the text exchange
// format and indexed from scratch. The returned Mounted handle owns the
// mapping backing the engine; for a heap-resident open it carries only the
// source's SnapshotInfo, so it never pins the base graph once mutations
// have replaced it.
func (c *Catalog) openPath(path string, cfg engine.Config) (*engine.Engine, *store.Mounted, error) {
	c.mu.RLock()
	useMmap := !c.mmapOff
	c.mu.RUnlock()
	if !useMmap {
		snap, err := store.OpenGraphFile(path)
		if err != nil {
			return nil, nil, err
		}
		eng, err := engine.NewFromSnapshot(snap, cfg)
		return eng, &store.Mounted{Info: snap.Info}, err
	}
	m, err := store.MountGraphFile(path)
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.NewFromSnapshot(m.Snapshot(), cfg)
	if err != nil {
		m.Close() // nothing reads the mapping yet
		return nil, nil, err
	}
	if !m.Mapped() {
		m = &store.Mounted{Info: m.Info}
	}
	return eng, m, nil
}

// MountPath mounts the dataset file (snapshot or text) at path under name.
func (c *Catalog) MountPath(name, path string, cfg engine.Config) (*Dataset, error) {
	eng, m, err := c.openPath(path, cfg)
	if err != nil {
		return nil, err
	}
	d, err := c.Mount(name, eng, cfg, path)
	if err != nil {
		m.Close() // mount failed before anything could read the mapping
		return nil, err
	}
	d.mu.Lock()
	d.mounted = m
	d.mu.Unlock()
	return d, nil
}

// SwapPath loads the dataset file at path off to the side and hot-swaps it
// into name — mounting it fresh when the name is new. The load happens
// before the flip, so a corrupt file never disturbs the running engine.
func (c *Catalog) SwapPath(name, path string, cfg engine.Config) (*Dataset, error) {
	d, err := c.dataset(name)
	if err == nil {
		eng, m, err := c.openPath(path, d.cfg)
		if err != nil {
			return nil, err
		}
		if _, err := c.swapMounted(name, eng, path, m); err != nil {
			m.Close()
			return nil, err
		}
		return d, nil
	}
	return c.MountPath(name, path, cfg)
}

// Manifest lists the datasets a serving process mounts at boot.
type Manifest struct {
	// Default optionally names the dataset empty-name requests route to;
	// unset, the first entry is the default.
	Default  string          `json:"default,omitempty"`
	Datasets []ManifestEntry `json:"datasets"`
}

// ManifestEntry is one dataset of a Manifest.
type ManifestEntry struct {
	Name string `json:"name"`
	// Path locates the packed snapshot (preferred) or text-format file.
	Path string `json:"path"`
	// Gamma optionally overrides the serving config's attribute balance
	// factor for this dataset (0 keeps the base value).
	Gamma float64 `json:"gamma,omitempty"`
}

// LoadManifest reads a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Datasets) == 0 {
		return nil, fmt.Errorf("%s: manifest mounts no datasets", path)
	}
	return &m, nil
}

// MountManifest mounts every dataset of m with base as the engine config
// template (per-entry Gamma applied on top) and sets the manifest's default.
func (c *Catalog) MountManifest(m *Manifest, base engine.Config) error {
	for _, e := range m.Datasets {
		cfg := base
		if e.Gamma != 0 {
			cfg.Gamma = e.Gamma
		}
		if _, err := c.MountPath(e.Name, e.Path, cfg); err != nil {
			return fmt.Errorf("manifest dataset %q: %w", e.Name, err)
		}
	}
	if m.Default != "" {
		return c.SetDefault(m.Default)
	}
	return c.SetDefault(m.Datasets[0].Name)
}
