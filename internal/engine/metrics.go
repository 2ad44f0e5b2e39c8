package engine

import (
	"strconv"
	"sync/atomic"
)

// QueryMetrics captures per-request stage timing and cache provenance. The
// struct is intentionally flat and CSV-friendly so serving experiments can
// stream one row per request. All durations are nanoseconds; zero means the
// stage did not run (e.g. SearchNS on a result-cache hit).
//
// For a request that joined an in-flight identical query (Coalesced), the
// stage timings are those of the shared execution, not of the wait.
type QueryMetrics struct {
	Query     int64  `json:"query"`      // query node ID
	K         int    `json:"k"`          // structural parameter
	Model     string `json:"model"`      // community model name
	Method    string `json:"method"`     // search method name
	ResultHit bool   `json:"result_hit"` // served from the result cache
	Coalesced bool   `json:"coalesced"`  // joined an identical in-flight query
	Shed      bool   `json:"shed"`       // rejected by MaxInFlight admission control (429)
	IndexHit  bool   `json:"index_hit"`  // shared index answered admission (reject) without a search
	IndexNS   int64  `json:"index_ns"`   // shared-index admission check
	SearchNS  int64  `json:"search_ns"`  // the search, f(·,q) evaluation included
	TotalNS   int64  `json:"total_ns"`   // whole request, queueing included
	Err       string `json:"err"`        // empty on success
}

// QueryMetricsHeader returns the CSV header matching CSVRecord.
func QueryMetricsHeader() []string {
	return []string{
		"query", "k", "model", "method", "result_hit", "coalesced",
		"shed", "index_hit", "index_ns", "search_ns", "total_ns", "err",
	}
}

// CSVRecord renders the metrics as one CSV row.
func (m QueryMetrics) CSVRecord() []string {
	return []string{
		strconv.FormatInt(m.Query, 10),
		strconv.Itoa(m.K),
		m.Model,
		m.Method,
		strconv.FormatBool(m.ResultHit),
		strconv.FormatBool(m.Coalesced),
		strconv.FormatBool(m.Shed),
		strconv.FormatBool(m.IndexHit),
		strconv.FormatInt(m.IndexNS, 10),
		strconv.FormatInt(m.SearchNS, 10),
		strconv.FormatInt(m.TotalNS, 10),
		m.Err,
	}
}

// counters aggregates engine-wide event counts with atomic increments.
type counters struct {
	searchRuns   atomic.Uint64
	coalesced    atomic.Uint64
	indexRejects atomic.Uint64
	errors       atomic.Uint64
	shed         atomic.Uint64

	mutations          atomic.Uint64
	deltas             atomic.Uint64
	resultInvalidation atomic.Uint64
}

// Stats is a point-in-time snapshot of the engine's aggregate state,
// flat for JSON (/stats) and CSV export.
type Stats struct {
	Queries      uint64 `json:"queries"`       // Query/Batch requests accepted
	SearchRuns   uint64 `json:"search_runs"`   // SEA executions actually performed
	Coalesced    uint64 `json:"coalesced"`     // requests that joined an in-flight twin
	IndexRejects uint64 `json:"index_rejects"` // requests rejected by the shared index
	Errors       uint64 `json:"errors"`        // requests that returned an error
	Shed         uint64 `json:"shed"`          // requests shed by MaxInFlight admission control

	ResultHits      uint64 `json:"result_hits"`
	ResultMisses    uint64 `json:"result_misses"`
	ResultEvictions uint64 `json:"result_evictions"`
	ResultEntries   int    `json:"result_entries"`

	// DistHits and DistMisses are always zero: the engine keeps no
	// distance-vector cache.
	//
	// Deprecated: inert; the frozen benchmark's engine.dist_hit_frac reads
	// them; remove in the next PR allowed to touch benchmark/.
	DistHits   uint64 `json:"-"`
	DistMisses uint64 `json:"-"`

	// Live-update counters: applied mutation batches/deltas, the current
	// graph generation, and the scoped-invalidation tally — result entries
	// dropped because their query node fell in a mutation's affected region.
	Mutations           uint64 `json:"mutations"`
	DeltasApplied       uint64 `json:"deltas_applied"`
	GraphVersion        uint64 `json:"graph_version"`
	ResultInvalidations uint64 `json:"result_invalidations"`
}

// Stats returns a snapshot of the engine's counters and cache occupancy.
func (e *Engine) Stats() Stats {
	s := Stats{
		SearchRuns:          e.ctr.searchRuns.Load(),
		Coalesced:           e.ctr.coalesced.Load(),
		IndexRejects:        e.ctr.indexRejects.Load(),
		Errors:              e.ctr.errors.Load(),
		Shed:                e.ctr.shed.Load(),
		Mutations:           e.ctr.mutations.Load(),
		DeltasApplied:       e.ctr.deltas.Load(),
		GraphVersion:        e.Version(),
		ResultInvalidations: e.ctr.resultInvalidation.Load(),
	}
	s.ResultHits, s.ResultMisses, s.ResultEvictions, s.ResultEntries = e.results.stats()
	// Every request is looked up exactly once with its miss counted (see
	// Engine.answer), so the cache's tally is the request count.
	s.Queries = s.ResultHits + s.ResultMisses
	return s
}
