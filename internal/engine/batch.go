package engine

// Batch execution through the engine: a bounded worker pool drives many
// requests against the shared index and caches, each item carrying its own
// per-stage metrics. Repeated or concurrent identical requests in a batch
// are served once (cache + coalescing), and Config.RequestTimeout genuinely
// interrupts each item's search — a stuck query is cancelled at its
// deadline instead of holding a worker and a concurrency slot until it
// finishes on its own.

import (
	"context"
	"encoding/csv"
	"io"
	"sync"

	"repro/internal/query"
)

// BatchItem pairs one request of a batch with its outcome and metrics. A
// truncated search (exhausted state budget) sets both Outcome — carrying
// the best-so-far community — and Err; Outcome is nil only when the request
// produced nothing at all.
type BatchItem struct {
	Request query.Request
	Outcome *query.Outcome
	Err     error
	Metrics QueryMetrics
}

// Batch executes every request through the engine's worker pool
// (Config.Workers goroutines) and returns the outcomes in request order.
// Config.RequestTimeout bounds — and on expiry cancels — each item
// individually; cancelling ctx stops feeding the pool, interrupts running
// items, and marks unstarted items with ctx's error.
func (e *Engine) Batch(ctx context.Context, reqs []query.Request) ([]BatchItem, error) {
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return nil, err
		}
	}
	workers := e.cfg.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]BatchItem, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, qm, err := e.QueryWithMetrics(ctx, reqs[i])
				out[i] = BatchItem{Request: reqs[i], Outcome: res, Err: err, Metrics: qm}
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < len(reqs); j++ {
				out[j] = BatchItem{Request: reqs[j], Err: ctx.Err(),
					Metrics: QueryMetrics{Query: int64(reqs[j].Query), Err: ctx.Err().Error()}}
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return out, nil
}

// WriteMetricsCSV writes one CSV row per batch item (header included), the
// flat per-stage timing format of QueryMetrics.
func WriteMetricsCSV(w io.Writer, items []BatchItem) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(QueryMetricsHeader()); err != nil {
		return err
	}
	for _, it := range items {
		if err := cw.Write(it.Metrics.CSVRecord()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
