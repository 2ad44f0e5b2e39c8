package httpapi

// The catalog surface: the query endpoints routed per dataset through the
// wire request's "graph" field, plus the catalog's own — /graphs, /stats,
// /metrics, the /admin write endpoints and the replication source endpoints
// that make any journaled node a replication primary (internal/cluster's
// follower bootstraps from /admin/replicate and tails /admin/journal,
// folding each batch through Catalog.Fold).
//
// Reload never disturbs the running engine on failure: a corrupt or missing
// file reports 422/500 and the old engine keeps serving. Mutate is
// all-or-nothing per batch: a rejected delta reports 400 and nothing
// changes. Concurrent mutate requests coalesce through the dataset's
// group-commit batcher (internal/commit): the response carries the caller's
// per-delta outcomes plus batch-level batch_size/queue_ns/flush_ns, and a
// full commit queue sheds with 429 + Retry-After before anything enqueues.

import (
	"io"
	"net/http"
	"os"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/commit"
	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// CatalogRoutes is the route table of the multi-dataset serving surface of
// c. base is the engine config template used when /admin/reload mounts a
// dataset under a new name (existing datasets keep the config they were
// mounted with). The three /admin write endpoints are Fenced.
func CatalogRoutes(c *catalog.Catalog, base engine.Config) []Route {
	a := catalogAPI{c, base}
	return append(queryAPI{c.Resolve}.routes(),
		Route{Method: http.MethodGet, Path: "/graphs", Handler: a.graphs},
		Route{Method: http.MethodGet, Path: "/stats", Handler: a.stats},
		Route{Method: http.MethodGet, Path: "/metrics", Handler: a.metrics},
		Route{Method: http.MethodPost, Path: "/admin/reload", Handler: a.reload, Fenced: true},
		Route{Method: http.MethodPost, Path: "/admin/mutate", Handler: a.mutate, Fenced: true},
		Route{Method: http.MethodPost, Path: "/admin/compact", Handler: a.compact, Fenced: true},
		Route{Method: http.MethodGet, Path: ReplicatePath, Handler: a.replicate},
		Route{Method: http.MethodGet, Path: JournalPath, Handler: a.journal},
	)
}

type catalogAPI struct {
	c    *catalog.Catalog
	base engine.Config
}

// graphs lists the mounted datasets with shape, source and stats.
func (a catalogAPI) graphs(w http.ResponseWriter, r *http.Request) error {
	WriteJSON(w, http.StatusOK, struct {
		Default string         `json:"default,omitempty"`
		Graphs  []catalog.Info `json:"graphs"`
	}{a.c.Default(), a.c.Infos()})
	return nil
}

// stats answers the engine counters plus the catalog-level journal and
// lineage state replication lag is read from, the per-stage latency
// percentile summary (µs; see engine.LatencySummary), and the group-commit
// batcher digest (see commit.Summary).
func (a catalogAPI) stats(w http.ResponseWriter, r *http.Request) error {
	info, err := a.c.InfoFor(r.URL.Query().Get("graph"))
	if err != nil {
		return err
	}
	WriteJSON(w, http.StatusOK, struct {
		Graph string `json:"graph"`
		engine.Stats
		Lineage        uint64                `json:"lineage"`
		JournalSeq     uint64                `json:"journal_seq"`
		JournalBatches int                   `json:"journal_batches"`
		Latency        engine.LatencySummary `json:"latency"`
		Commit         commit.Summary        `json:"commit"`
	}{info.Name, info.Stats, info.Swaps, info.JournalSeq, info.JournalBatches,
		info.Latency.Summary(), info.Commit.Summary()})
	return nil
}

// metrics answers every dataset's counters, gauges and histograms in the
// Prometheus text format, one sample per dataset (label graph="...").
func (a catalogAPI) metrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	catalog.WriteMetrics(w, a.c.Infos())
	return nil
}

// reload loads {"graph":"fb","path":"fb2.snap"} off to the side and
// hot-swaps it in (mounting it when the name is new).
func (a catalogAPI) reload(w http.ResponseWriter, r *http.Request) error {
	var req struct {
		Graph string `json:"graph"`
		Path  string `json:"path"`
	}
	if err := DecodeJSONBody(w, r, &req); err != nil {
		return err
	}
	if req.Graph == "" || req.Path == "" {
		return cserr.Invalidf(`need "graph" and "path"`)
	}
	d, err := a.c.SwapPath(req.Graph, req.Path, a.base)
	if err != nil {
		return err
	}
	g := d.Engine().Graph()
	WriteJSON(w, http.StatusOK, struct {
		Graph string `json:"graph"`
		Nodes int    `json:"nodes"`
		Edges int    `json:"edges"`
		Swaps uint64 `json:"swaps"`
	}{d.Name(), g.NumNodes(), g.NumEdges(), d.Swaps()})
	return nil
}

// mutate applies {"graph":"fb","deltas":[{"op":"add_edge","u":1,"v":2}]} as
// one live mutation batch (journaled when the dataset mounted with a
// journal); an empty graph targets the default dataset.
func (a catalogAPI) mutate(w http.ResponseWriter, r *http.Request) error {
	var req struct {
		Graph  string         `json:"graph"`
		Deltas []mutate.Delta `json:"deltas"`
	}
	if err := DecodeJSONBody(w, r, &req); err != nil {
		return err
	}
	if len(req.Deltas) == 0 {
		return cserr.Invalidf(`need a non-empty "deltas" array`)
	}
	res, err := a.c.Mutate(req.Graph, req.Deltas)
	if err != nil {
		if res != nil && res.Applied > 0 {
			// The batch IS live but failed to journal: a bare error
			// would invite a retry that double-applies it. Report the
			// full result (JournalError set) under a 500 status.
			WriteJSON(w, http.StatusInternalServerError, res)
			return nil
		}
		return err
	}
	WriteJSON(w, http.StatusOK, res)
	return nil
}

// compact folds the journal of {"graph":"fb"} into a fresh snapshot and
// truncates it.
func (a catalogAPI) compact(w http.ResponseWriter, r *http.Request) error {
	var req struct {
		Graph string `json:"graph"`
	}
	if err := DecodeJSONBody(w, r, &req); err != nil {
		return err
	}
	res, err := a.c.Compact(req.Graph)
	if err != nil {
		return err
	}
	WriteJSON(w, http.StatusOK, res)
	return nil
}

// replicate streams a snapshot of the dataset's current serving state, with
// the replication cursor in the X-Sea-Version / X-Sea-Lineage headers. The
// snapshot spools through a temp file first: the cursor headers must be
// written before the body, and the cursor is only known once the engine
// state has been captured — and a slow client must not hold the dataset
// lock or pin the engine any longer than the capture itself.
func (a catalogAPI) replicate(w http.ResponseWriter, r *http.Request) error {
	name := r.URL.Query().Get("graph")
	info, err := a.c.ReplicationInfo(name)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp("", "sea-replicate-*.snap")
	if err != nil {
		return err
	}
	defer func() {
		f.Close()
		os.Remove(f.Name())
	}()
	version, lineage, err := a.c.ReplicateSnapshot(name, f)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set(HeaderGraph, info.Graph)
	w.Header().Set(HeaderVersion, strconv.FormatUint(version, 10))
	w.Header().Set(HeaderLineage, strconv.FormatUint(lineage, 10))
	// "replicate.stream" severs the bootstrap transfer mid-body (headers and
	// Content-Length already sent), the shape of a connection dropped during
	// a long snapshot download.
	io.Copy(faults.Wrap("replicate.stream", w), f)
	return nil
}

// journal answers a follower's tail poll, ?graph=fb&lineage=L&from=V: the
// journal batches past cursor V, rebased onto graph versions. A cursor no
// journal tail can serve (compacted past, new lineage) is catalog.ErrResync,
// 410 Gone — the follower's signal to bootstrap a fresh snapshot.
func (a catalogAPI) journal(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	name := q.Get("graph")
	lineage, err := parseUint(q.Get("lineage"))
	if err != nil {
		return cserr.Invalidf("bad lineage=%q", q.Get("lineage"))
	}
	from, err := parseUint(q.Get("from"))
	if err != nil {
		return cserr.Invalidf("bad from=%q", q.Get("from"))
	}
	info, err := a.c.ReplicationInfo(name)
	if err != nil {
		return err
	}
	batches, cur, err := a.c.JournalSince(name, lineage, from)
	if err == nil {
		err = faults.Check("journal.serve")
	}
	if err != nil {
		return err
	}
	if batches == nil {
		batches = []catalog.VersionedBatch{} // a caught-up tail is [], not null
	}
	WriteJSON(w, http.StatusOK, struct {
		Graph   string `json:"graph"`
		Lineage uint64 `json:"lineage"`
		From    uint64 `json:"from"`
		// Version is the dataset's current graph generation; Version − From
		// is the lag the returned batches close.
		Version uint64                   `json:"version"`
		Batches []catalog.VersionedBatch `json:"batches"`
	}{info.Graph, lineage, from, cur, batches})
	return nil
}

// parseUint parses a decimal uint64 query parameter, "" meaning 0.
func parseUint(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 10, 64)
}
