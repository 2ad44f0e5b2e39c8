package main

import (
	"bytes"
	"net/http"
	"net/url"
	"time"
)

// The ruler: every end-to-end op goes through the outermost entry point
// this repository owns — the catalog's http.Handler — with the real wire
// body in and a byte-counting ResponseWriter out, called in process. Over a
// loopback socket a cache hit costs ~150 µs of kernel and scheduler against
// ~8 µs of this repository's code, and a 2× change in that code would be
// invisible.

// respWriter is the ResponseWriter a caller hands the handler: it keeps the
// status and the body, reused across ops.
type respWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

// bodyReader is a request body over an op's pre-generated bytes.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// caller issues ops against one handler. It is not safe for concurrent use:
// each client goroutine owns one. Nothing it hands the handler outlives the
// call, so request, body and writer are reused and the ruler allocates
// nothing per op.
type caller struct {
	h    http.Handler
	w    respWriter
	body bodyReader
	req  http.Request
	urls map[string]*url.URL
	hdr  http.Header
}

func newCaller(h http.Handler) *caller {
	c := &caller{h: h, urls: make(map[string]*url.URL)}
	c.w.hdr = make(http.Header)
	c.hdr = http.Header{"Content-Type": {"application/json"}}
	for _, p := range []string{"/search", "/batch", "/compare", "/admin/mutate"} {
		c.urls[p] = &url.URL{Path: p}
	}
	return c
}

// call runs one op through the handler and returns the status, the response
// body (valid until the next call), when the handler was entered and the time
// it took.
func (c *caller) call(o *op) (status int, body []byte, start time.Time, took time.Duration) {
	clear(c.w.hdr)
	c.w.status = 0
	c.w.buf.Reset()
	c.body.Reset(o.body)
	c.req = http.Request{
		Method: http.MethodPost, URL: c.urls[o.path], RequestURI: o.path,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.hdr, Host: "benchmark", Body: &c.body, ContentLength: int64(len(o.body)),
	}
	start = time.Now()
	c.h.ServeHTTP(&c.w, &c.req)
	took = time.Since(start)
	return c.w.status, c.w.buf.Bytes(), start, took
}
