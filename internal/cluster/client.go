package cluster

// HTTP client for the replication and cluster-control endpoints of one
// node. Thin by design: the wire protocol is the catalog's replication
// surface plus the NodeHandler's control paths, and every method maps to
// exactly one request.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/faults"
	"repro/internal/httpapi"
	"repro/internal/store"
)

// Client speaks to one cluster node by base URL.
type Client struct {
	// Base is the node's root URL, e.g. "http://127.0.0.1:7070".
	Base string
	// HTTP is the underlying client; nil uses a private client with a 30s
	// overall timeout (per-call contexts tighten it further).
	HTTP *http.Client
}

// NewClient returns a Client for the node at base. hc may be nil, which
// builds a private client with a 30s overall timeout whose transport passes
// the "cluster.client" fault-injection site — so follower bootstrap/tail
// traffic (and anything else on the default client) can be failed, delayed
// or severed by an armed faults spec. A caller-supplied hc is used as-is.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{
			Timeout:   30 * time.Second,
			Transport: faults.Transport("cluster.client", nil),
		}
	}
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: hc}
}

// apiError is a non-2xx response decoded from the node's error body.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("node answered %d: %s", e.Status, e.Msg)
}

// errorFrom drains resp and builds the call error. 410 Gone wraps
// catalog.ErrResync so callers can trigger a snapshot re-bootstrap with
// errors.Is.
func errorFrom(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(body))
	var wire struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &wire) == nil && wire.Error != "" {
		msg = wire.Error
	}
	if resp.StatusCode == http.StatusGone {
		return fmt.Errorf("%w: %s", catalog.ErrResync, msg)
	}
	return &apiError{Status: resp.StatusCode, Msg: msg}
}

// get issues a GET against path with query values and returns the response
// on 200; any other status is drained into an error.
func (c *Client) get(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	u := c.Base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, errorFrom(resp)
	}
	return resp, nil
}

// post issues a JSON POST against path and decodes a 2xx response into out
// (when non-nil).
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return errorFrom(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Graphs lists the datasets the node serves.
func (c *Client) Graphs(ctx context.Context) ([]catalog.Info, error) {
	resp, err := c.get(ctx, "/graphs", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var wire struct {
		Graphs []catalog.Info `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return nil, fmt.Errorf("decoding /graphs from %s: %w", c.Base, err)
	}
	return wire.Graphs, nil
}

// SnapshotMeta is the replication cursor a fetched snapshot captured.
type SnapshotMeta struct {
	Graph   string
	Version uint64
	Lineage uint64
}

// FetchSnapshot streams GET /admin/replicate for graph into the file at
// dest (written atomically: a torn download never leaves a partial file)
// and returns the cursor the snapshot carries.
func (c *Client) FetchSnapshot(ctx context.Context, graph, dest string) (SnapshotMeta, error) {
	q := url.Values{}
	if graph != "" {
		q.Set("graph", graph)
	}
	resp, err := c.get(ctx, httpapi.ReplicatePath, q)
	if err != nil {
		return SnapshotMeta{}, err
	}
	defer resp.Body.Close()
	meta := SnapshotMeta{Graph: resp.Header.Get(httpapi.HeaderGraph)}
	if meta.Version, err = strconv.ParseUint(resp.Header.Get(httpapi.HeaderVersion), 10, 64); err != nil {
		return SnapshotMeta{}, fmt.Errorf("replicate response from %s lacks %s", c.Base, httpapi.HeaderVersion)
	}
	if meta.Lineage, err = strconv.ParseUint(resp.Header.Get(httpapi.HeaderLineage), 10, 64); err != nil {
		return SnapshotMeta{}, fmt.Errorf("replicate response from %s lacks %s", c.Base, httpapi.HeaderLineage)
	}
	if _, err := store.AtomicWriteFile(dest, func(w io.Writer) error {
		_, err := io.Copy(w, resp.Body)
		return err
	}); err != nil {
		return SnapshotMeta{}, err
	}
	return meta, nil
}

// JournalTail is the GET /admin/journal body: the batches past the polled
// cursor, rebased onto graph versions, plus the primary's current version.
type JournalTail struct {
	Graph   string                   `json:"graph"`
	Lineage uint64                   `json:"lineage"`
	From    uint64                   `json:"from"`
	Version uint64                   `json:"version"`
	Batches []catalog.VersionedBatch `json:"batches"`
}

// JournalSince polls the journal batches past cursor from. An error
// wrapping catalog.ErrResync (HTTP 410) means no tail can serve the cursor
// and the caller must re-bootstrap from a fresh snapshot.
func (c *Client) JournalSince(ctx context.Context, graph string, lineage, from uint64) (*JournalTail, error) {
	q := url.Values{}
	if graph != "" {
		q.Set("graph", graph)
	}
	q.Set("lineage", strconv.FormatUint(lineage, 10))
	q.Set("from", strconv.FormatUint(from, 10))
	resp, err := c.get(ctx, httpapi.JournalPath, q)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var tail JournalTail
	if err := json.NewDecoder(resp.Body).Decode(&tail); err != nil {
		return nil, fmt.Errorf("decoding journal tail from %s: %w", c.Base, err)
	}
	return &tail, nil
}

// Status fetches the node's replication status.
func (c *Client) Status(ctx context.Context) (*NodeStatus, error) {
	resp, err := c.get(ctx, ReplicationPath, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding %s from %s: %w", ReplicationPath, c.Base, err)
	}
	return &st, nil
}

// Promote asks the node to become a writable primary (idempotent).
func (c *Client) Promote(ctx context.Context) error {
	return c.post(ctx, PromotePath, struct{}{}, nil)
}

// Follow re-points the node at a new primary.
func (c *Client) Follow(ctx context.Context, primary string) error {
	return c.post(ctx, FollowPath, followRequest{Primary: primary}, nil)
}
