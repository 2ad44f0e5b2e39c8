package catalog

// HTTP surface of a Catalog: the engine's full query surface (/search,
// /batch, /compare, /healthz, /stats) routed per dataset through the wire
// request's "graph" field, plus the catalog's own endpoints:
//
//	GET  /graphs          → mounted datasets with shape, source and stats
//	GET  /stats           → engine counters enriched with the dataset's
//	                        journal seq/batches and lineage
//	GET  /metrics         → the same counters in Prometheus text format,
//	                        one sample per dataset (label graph="...")
//	POST /admin/reload    → {"graph":"fb","path":"fb2.snap"}: load the file
//	                        off to the side, hot-swap it in (mount when new)
//	POST /admin/mutate    → {"graph":"fb","deltas":[{"op":"add_edge","u":1,"v":2}]}:
//	                        apply a live mutation batch (journaled when the
//	                        dataset mounted with a journal); no hot-swap
//	POST /admin/compact   → {"graph":"fb"}: fold the journal into a fresh
//	                        snapshot and truncate it
//	GET  /admin/replicate → ?graph=fb: stream a snapshot of the dataset's
//	                        current serving state; X-Sea-Version and
//	                        X-Sea-Lineage carry the replication cursor
//	GET  /admin/journal   → ?graph=fb&lineage=L&from=V: the journal batches
//	                        past cursor V, rebased onto graph versions;
//	                        410 Gone when only a fresh snapshot can serve
//	                        the cursor (compacted past, new lineage)
//
// /admin/replicate and /admin/journal make any journaled seaserve a
// replication primary: internal/cluster's follower bootstraps from the
// first and tails the second, folding each batch through Catalog.Fold.
//
// Reload never disturbs the running engine on failure: a corrupt or
// missing file reports 422/500 and the old engine keeps serving. Mutate is
// all-or-nothing per batch: a rejected delta reports 400 and nothing
// changes. Concurrent mutate requests coalesce through the dataset's
// group-commit batcher (internal/commit): the response carries the caller's
// per-delta outcomes plus batch-level batch_size/queue_ns/flush_ns, and a
// full commit queue sheds with 429 + Retry-After before anything enqueues.

import (
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"

	"repro/internal/commit"
	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/mutate"
)

// Replication wire protocol: endpoint paths and the headers carrying the
// snapshot cursor. internal/cluster's client speaks exactly these.
const (
	ReplicatePath = "/admin/replicate"
	JournalPath   = "/admin/journal"

	// HeaderGraph names the dataset a replication response describes (the
	// resolved name, even when the request named the default by omission).
	HeaderGraph = "X-Sea-Graph"
	// HeaderVersion is the graph generation the response captured — the
	// replication cursor a follower resumes tailing from.
	HeaderVersion = "X-Sea-Version"
	// HeaderLineage is the dataset's lineage token (swap count); journal
	// tails are only valid within one lineage.
	HeaderLineage = "X-Sea-Lineage"
)

// graphsResponse is the GET /graphs body.
type graphsResponse struct {
	Default string `json:"default,omitempty"`
	Graphs  []Info `json:"graphs"`
}

// statsResponse is the GET /stats body: the engine counters plus the
// catalog-level journal and lineage state replication lag is read from,
// the per-stage latency percentile summary (µs; see engine.LatencySummary),
// and the group-commit batcher digest (batch-size distribution, queue-wait
// and flush percentiles; see commit.Summary).
type statsResponse struct {
	Graph string `json:"graph"`
	engine.Stats
	Lineage        uint64                `json:"lineage"`
	JournalSeq     uint64                `json:"journal_seq"`
	JournalBatches int                   `json:"journal_batches"`
	Latency        engine.LatencySummary `json:"latency"`
	Commit         commit.Summary        `json:"commit"`
}

// journalResponse is the GET /admin/journal body.
type journalResponse struct {
	Graph   string `json:"graph"`
	Lineage uint64 `json:"lineage"`
	From    uint64 `json:"from"`
	// Version is the dataset's current graph generation; Version − From is
	// the lag the returned batches close.
	Version uint64           `json:"version"`
	Batches []VersionedBatch `json:"batches"`
}

// reloadRequest is the POST /admin/reload body.
type reloadRequest struct {
	Graph string `json:"graph"`
	Path  string `json:"path"`
}

type reloadResponse struct {
	Graph string `json:"graph"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	Swaps uint64 `json:"swaps"`
}

// mutateRequest is the POST /admin/mutate body; an empty Graph targets the
// default dataset.
type mutateRequest struct {
	Graph  string         `json:"graph"`
	Deltas []mutate.Delta `json:"deltas"`
}

// compactRequest is the POST /admin/compact body.
type compactRequest struct {
	Graph string `json:"graph"`
}

// NewHTTPHandler returns the multi-dataset JSON serving surface of c. base
// is the engine config template used when /admin/reload mounts a dataset
// under a new name (existing datasets keep the config they were mounted
// with).
func NewHTTPHandler(c *Catalog, base engine.Config) http.Handler {
	mux := engine.NewResolverHandler(c.Resolve)
	mux.HandleFunc("/graphs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			engine.WriteError(w, http.StatusMethodNotAllowed, cserr.Invalidf("use GET"))
			return
		}
		engine.WriteJSON(w, http.StatusOK, graphsResponse{Default: c.Default(), Graphs: c.Infos()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			engine.WriteError(w, http.StatusMethodNotAllowed, cserr.Invalidf("use GET"))
			return
		}
		w.Header().Set("Content-Type", metricsContentType)
		WriteMetrics(w, c.Infos())
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			engine.WriteError(w, http.StatusMethodNotAllowed, cserr.Invalidf("use POST"))
			return
		}
		var req reloadRequest
		if err := engine.DecodeJSONBody(w, r, &req); err != nil {
			engine.WriteError(w, engine.StatusFor(err), err)
			return
		}
		if req.Graph == "" || req.Path == "" {
			engine.WriteError(w, http.StatusBadRequest, cserr.Invalidf(`need "graph" and "path"`))
			return
		}
		d, err := c.SwapPath(req.Graph, req.Path, base)
		if err != nil {
			engine.WriteError(w, engine.StatusFor(err), err)
			return
		}
		g := d.Engine().Graph()
		d.mu.Lock()
		swaps := d.swaps
		d.mu.Unlock()
		engine.WriteJSON(w, http.StatusOK, reloadResponse{
			Graph: d.Name(), Nodes: g.NumNodes(), Edges: g.NumEdges(), Swaps: swaps,
		})
	})
	mux.HandleFunc("/admin/mutate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			engine.WriteError(w, http.StatusMethodNotAllowed, cserr.Invalidf("use POST"))
			return
		}
		var req mutateRequest
		if err := engine.DecodeJSONBody(w, r, &req); err != nil {
			engine.WriteError(w, engine.StatusFor(err), err)
			return
		}
		if len(req.Deltas) == 0 {
			engine.WriteError(w, http.StatusBadRequest, cserr.Invalidf(`need a non-empty "deltas" array`))
			return
		}
		res, err := c.Mutate(req.Graph, req.Deltas)
		if err != nil {
			if res != nil && res.Applied > 0 {
				// The batch IS live but failed to journal: a bare error
				// would invite a retry that double-applies it. Report the
				// full result (JournalError set) under a 500 status.
				engine.WriteJSON(w, http.StatusInternalServerError, res)
				return
			}
			engine.WriteError(w, engine.StatusFor(err), err)
			return
		}
		engine.WriteJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("/admin/compact", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			engine.WriteError(w, http.StatusMethodNotAllowed, cserr.Invalidf("use POST"))
			return
		}
		var req compactRequest
		if err := engine.DecodeJSONBody(w, r, &req); err != nil {
			engine.WriteError(w, engine.StatusFor(err), err)
			return
		}
		res, err := c.Compact(req.Graph)
		if err != nil {
			engine.WriteError(w, engine.StatusFor(err), err)
			return
		}
		engine.WriteJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc(ReplicatePath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			engine.WriteError(w, http.StatusMethodNotAllowed, cserr.Invalidf("use GET"))
			return
		}
		c.serveReplicate(w, r)
	})
	mux.HandleFunc(JournalPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			engine.WriteError(w, http.StatusMethodNotAllowed, cserr.Invalidf("use GET"))
			return
		}
		c.serveJournal(w, r)
	})
	// The resolver handler registered a plain engine /stats; the catalog
	// enriches it with journal/lineage state, so the wrapper owns the path.
	return engine.WithRequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stats" {
			info, err := c.InfoFor(r.URL.Query().Get("graph"))
			if err != nil {
				engine.WriteError(w, engine.StatusFor(err), err)
				return
			}
			engine.WriteJSON(w, http.StatusOK, statsResponse{
				Graph: info.Name, Stats: info.Stats, Lineage: info.Swaps,
				JournalSeq: info.JournalSeq, JournalBatches: info.JournalBatches,
				Latency: info.Latency.Summary(), Commit: info.Commit.Summary(),
			})
			return
		}
		mux.ServeHTTP(w, r)
	}))
}

// serveReplicate streams a snapshot of the dataset's current serving state.
// The snapshot spools through a temp file first: the cursor headers must be
// written before the body, and the cursor is only known once the engine
// state has been captured — and a slow client must not hold the dataset
// lock or pin the engine any longer than the capture itself.
func (c *Catalog) serveReplicate(w http.ResponseWriter, r *http.Request) {
	f, err := os.CreateTemp("", "sea-replicate-*.snap")
	if err != nil {
		engine.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	defer func() {
		f.Close()
		os.Remove(f.Name())
	}()
	name := r.URL.Query().Get("graph")
	info, err := c.InfoFor(name)
	if err != nil {
		engine.WriteError(w, engine.StatusFor(err), err)
		return
	}
	version, lineage, err := c.ReplicateSnapshot(name, f)
	if err != nil {
		engine.WriteError(w, engine.StatusFor(err), err)
		return
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		engine.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set(HeaderGraph, info.Name)
	w.Header().Set(HeaderVersion, strconv.FormatUint(version, 10))
	w.Header().Set(HeaderLineage, strconv.FormatUint(lineage, 10))
	// "replicate.stream" severs the bootstrap transfer mid-body (headers and
	// Content-Length already sent), the shape of a connection dropped during
	// a long snapshot download.
	io.Copy(faults.Wrap("replicate.stream", w), f)
}

// serveJournal answers a follower's tail poll. A cursor no journal tail can
// serve maps to 410 Gone — the follower's signal to bootstrap a fresh
// snapshot.
func (c *Catalog) serveJournal(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("graph")
	lineage, err := parseUint(q.Get("lineage"))
	if err != nil {
		engine.WriteError(w, http.StatusBadRequest, cserr.Invalidf("bad lineage=%q", q.Get("lineage")))
		return
	}
	from, err := parseUint(q.Get("from"))
	if err != nil {
		engine.WriteError(w, http.StatusBadRequest, cserr.Invalidf("bad from=%q", q.Get("from")))
		return
	}
	info, err := c.InfoFor(name)
	if err != nil {
		engine.WriteError(w, engine.StatusFor(err), err)
		return
	}
	batches, cur, err := c.JournalSince(name, lineage, from)
	if err == nil {
		err = faults.Check("journal.serve")
	}
	if err != nil {
		status := engine.StatusFor(err)
		if errors.Is(err, ErrResync) {
			status = http.StatusGone
		}
		engine.WriteError(w, status, err)
		return
	}
	if batches == nil {
		batches = []VersionedBatch{} // a caught-up tail is [], not null
	}
	engine.WriteJSON(w, http.StatusOK, journalResponse{
		Graph: info.Name, Lineage: lineage, From: from, Version: cur, Batches: batches,
	})
}

// parseUint parses a decimal uint64 query parameter, "" meaning 0.
func parseUint(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 10, 64)
}
