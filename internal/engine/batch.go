package engine

// Batch execution through the engine: cached items are answered inline and a
// bounded worker pool drives the rest against the shared index and caches,
// each item carrying its own per-stage metrics. Repeated or concurrent
// identical requests in a batch are served once (cache + coalescing), and
// Config.RequestTimeout genuinely interrupts each item's search — a stuck
// query is cancelled at its deadline instead of holding a worker and a
// concurrency slot until it finishes on its own.

import (
	"context"
	"encoding/csv"
	"io"
	"sync"

	"repro/internal/obs"
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

// Batch answers every request and returns the outcomes in request order,
// each item carrying its request as given. It is Answer over a fresh slice.
func (e *Engine) Batch(ctx context.Context, reqs []query.Request) ([]BatchItem, error) {
	items := make([]BatchItem, len(reqs))
	for i := range reqs {
		items[i].Request = reqs[i]
	}
	if err := e.Answer(ctx, items); err != nil {
		return nil, err
	}
	return items, nil
}

// Answer fills in every item's Outcome, Err and Metrics from its Request,
// leaving the Request as it is. It validates every request before answering
// any and returns the first error, changing nothing; past that point every
// item gets its own answer and Answer returns nil. What the result cache
// holds is answered on the calling goroutine, in order, exactly as
// QueryWithMetrics would; only the rest goes through the worker pool, none
// for a fully cached batch. The pool is as wide as the MaxConcurrent
// semaphore: a pool goroutine only hands its item to a computation that
// waits on that semaphore, so a wider pool would only queue and a narrower
// one would leave slots idle. Config.RequestTimeout bounds — and on expiry
// cancels — each item individually; cancelling ctx stops feeding the pool,
// interrupts running items, and marks unstarted items with ctx's error.
func (e *Engine) Answer(ctx context.Context, items []BatchItem) error {
	for i := range items {
		if err := items[i].Request.Validate(); err != nil {
			return err
		}
	}
	st := obs.TakeStripe() // one for the whole batch
	var pending []int      // indexes the cache did not answer
	for i := range items {
		it := &items[i]
		var err error
		if it.Outcome, err = e.answer(ctx, &it.Request, true, &it.Metrics, st); err == errUncached {
			pending = append(pending, i)
			continue
		}
		it.Err = err
	}
	if len(pending) == 0 {
		return nil
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(cap(e.sem), len(pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// The full path, lookup included: a duplicate of an item
				// computed earlier in this batch is a hit by now.
				it := &items[i]
				it.Outcome, it.Err = e.answer(ctx, &it.Request, false, &it.Metrics, st)
			}
		}()
	}
feed:
	for n, i := range pending {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for _, j := range pending[n:] {
				it := &items[j]
				it.Outcome, it.Err = nil, ctx.Err()
				it.Metrics = QueryMetrics{Query: int64(it.Request.Query), Err: ctx.Err().Error()}
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return nil
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
