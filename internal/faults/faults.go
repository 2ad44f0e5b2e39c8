// Package faults is a deterministic, seed-driven fault-injection layer for
// exercising the serving stack's failure paths. Production code marks the
// places where the outside world can fail — a journal fsync, a snapshot
// write, a replication stream, a router read — as named *sites*; a test (or a
// chaos run, via the SEAFAULTS environment variable) arms a subset of those
// sites with a spec saying how and how often they should fail. Disarmed, a
// site costs one atomic load, so the hooks stay compiled into release
// builds and chaos runs exercise the exact binaries that serve traffic.
//
// # Spec format
//
// A spec string arms one or more sites, separated by ';':
//
//	site=field:value[,field:value...][;site2=...]
//
// Fields (all optional; a bare "site=" fires always, forever):
//
//	prob:P     fire with probability P in [0,1] (deterministic per seed)
//	count:N    fire at most N times, then disarm (default: unlimited)
//	after:N    let the first N reaches pass untouched before arming
//	delay:D    sleep D (Go duration) at the site before continuing
//	err:NAME   error to inject: enospc, eio, closed, reset, or any literal
//	           string (wrapped in ErrInjected); default "injected"
//	partial    for write sites: let roughly half the payload through before
//	           failing, producing a torn write rather than a clean error
//
// A delay-only spec (delay without err/partial) slows the site down but lets
// it succeed — the tool for latency and timeout testing. Examples:
//
//	SEAFAULTS='journal.fsync=count:1,err:eio'
//	SEAFAULTS='replicate.stream=count:1,partial;journal.append=prob:0.1,err:enospc'
//	SEAFAULTS='engine.search=delay:50ms'
//
// # Determinism
//
// Probabilistic sites draw from a per-site PRNG seeded by (global seed,
// site name), so a run with the same seed and the same sequence of reaches
// fires identically. Count/after sites are exact regardless of seed.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error, so tests can
// assert an observed failure came from the harness and not a real fault:
// errors.Is(err, faults.ErrInjected).
var ErrInjected = errors.New("fault injected")

// Spec describes how one armed site misbehaves. The zero value (beyond
// Site) fires always, forever, with the default injected error.
type Spec struct {
	Site    string        // injection-point name, e.g. "journal.fsync"
	Prob    float64       // fire probability; 0 means "always" (unset)
	Count   int64         // max fires before the site disarms; 0 = unlimited
	After   int64         // reaches to let pass before arming
	Delay   time.Duration // sleep before continuing (even on non-fire passes when DelayOnly)
	Err     string        // error name: enospc, eio, closed, reset, or literal
	Partial bool          // write sites: torn write (about half the bytes land)
}

// DelayOnly reports whether the spec slows the site without failing it.
func (s Spec) DelayOnly() bool {
	return s.Delay > 0 && s.Err == "" && !s.Partial
}

// Error materializes the spec's injected error, always wrapping ErrInjected.
func (s Spec) Error() error {
	name := s.Err
	if name == "" {
		name = "injected"
	}
	switch name {
	case "enospc":
		return fmt.Errorf("%w: %s: %w", ErrInjected, s.Site, syscall.ENOSPC)
	case "eio":
		return fmt.Errorf("%w: %s: %w", ErrInjected, s.Site, syscall.EIO)
	case "closed":
		return fmt.Errorf("%w: %s: %w", ErrInjected, s.Site, syscall.EPIPE)
	case "reset":
		return fmt.Errorf("%w: %s: %w", ErrInjected, s.Site, syscall.ECONNRESET)
	default:
		return fmt.Errorf("%w: %s: %s", ErrInjected, s.Site, name)
	}
}

// site is one armed injection point's live state.
type site struct {
	spec    Spec
	mu      sync.Mutex
	rng     *rand.Rand
	reaches int64 // total times the site was reached
	fired   int64 // times it injected
}

// fire decides (under the site lock, so counters and the PRNG stay
// consistent under concurrent reaches) whether this reach injects.
func (s *site) fire() (Spec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reaches++
	if s.reaches <= s.spec.After {
		return Spec{}, false
	}
	if s.spec.Count > 0 && s.fired >= s.spec.Count {
		return Spec{}, false
	}
	if s.spec.Prob > 0 && s.rng.Float64() >= s.spec.Prob {
		return Spec{}, false
	}
	s.fired++
	return s.spec, true
}

// registry is the process-wide armed-site table. enabled is the fast path:
// production reaches pay one atomic load when nothing is armed.
var (
	enabled atomic.Bool
	regMu   sync.RWMutex
	reg     map[string]*site
)

// Enable arms the given specs with a deterministic seed, replacing any
// previously armed set. An empty spec list disables injection entirely.
func Enable(seed int64, specs ...Spec) {
	m := make(map[string]*site, len(specs))
	for _, sp := range specs {
		h := fnv.New64a()
		io.WriteString(h, sp.Site)
		m[sp.Site] = &site{
			spec: sp,
			rng:  rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		}
	}
	regMu.Lock()
	reg = m
	regMu.Unlock()
	enabled.Store(len(m) > 0)
}

// Disable disarms every site. Idempotent; safe to defer from tests.
func Disable() { Enable(0) }

// Setup parses a spec string (the SEAFAULTS format) and arms it. It is the
// one-call entry point for main(): Setup(os.Getenv("SEAFAULTS"), seed).
// An empty spec string disables injection and returns nil.
func Setup(spec string, seed int64) error {
	specs, err := Parse(spec)
	if err != nil {
		return err
	}
	Enable(seed, specs...)
	return nil
}

// Parse parses the SEAFAULTS spec format (see the package comment). An
// empty string parses to no specs.
func Parse(s string) ([]Spec, error) {
	var specs []Spec
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("faults: bad spec %q: want site=field:value,...", part)
		}
		sp := Spec{Site: name}
		for _, field := range strings.Split(rest, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			key, val, _ := strings.Cut(field, ":")
			switch key {
			case "prob":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || !(p >= 0 && p <= 1) { // NaN fails both
					return nil, fmt.Errorf("faults: %s: bad prob %q", name, val)
				}
				sp.Prob = p
			case "count":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faults: %s: bad count %q", name, val)
				}
				sp.Count = n
			case "after":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faults: %s: bad after %q", name, val)
				}
				sp.After = n
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faults: %s: bad delay %q", name, val)
				}
				sp.Delay = d
			case "err":
				if val == "" {
					return nil, fmt.Errorf("faults: %s: empty err", name)
				}
				sp.Err = val
			case "partial":
				sp.Partial = true
			default:
				return nil, fmt.Errorf("faults: %s: unknown field %q", name, key)
			}
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// lookup returns the armed site for name, nil when disarmed.
func lookup(name string) *site {
	if !enabled.Load() {
		return nil
	}
	regMu.RLock()
	s := reg[name]
	regMu.RUnlock()
	return s
}

// Check is the plain injection hook: call it where an error can be
// injected. It returns nil when the site is disarmed or this reach does not
// fire; otherwise it sleeps the spec's delay (if any) and returns the
// injected error. A delay-only spec sleeps and returns nil.
func Check(name string) error {
	s := lookup(name)
	if s == nil {
		return nil
	}
	sp, hit := s.fire()
	if !hit {
		return nil
	}
	if sp.Delay > 0 {
		time.Sleep(sp.Delay)
	}
	if sp.DelayOnly() {
		return nil
	}
	return sp.Error()
}

// Wrap decorates a writer with the site's write faults: when the site
// fires, the faulty write lets about half its bytes through first when the
// spec says partial (a torn write), then fails with the injected error.
// Disarmed, it returns w unchanged — zero wrapping cost.
func Wrap(name string, w io.Writer) io.Writer {
	if s := lookup(name); s != nil {
		return &faultWriter{name: name, w: w}
	}
	return w
}

type faultWriter struct {
	name   string
	w      io.Writer
	failed error // once failed, every later write fails the same way
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if fw.failed != nil {
		return 0, fw.failed
	}
	s := lookup(fw.name)
	if s == nil {
		return fw.w.Write(p)
	}
	sp, hit := s.fire()
	if !hit {
		return fw.w.Write(p)
	}
	if sp.Delay > 0 {
		time.Sleep(sp.Delay)
	}
	if sp.DelayOnly() {
		return fw.w.Write(p)
	}
	fw.failed = sp.Error()
	if sp.Partial && len(p) > 1 {
		n, err := fw.w.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fw.failed
	}
	return 0, fw.failed
}

// Transport decorates an http.RoundTripper with the site's faults: a firing
// reach can delay the request, fail it outright before it is sent, or — with
// partial — let the response through but sever its body mid-read, the shape
// of a connection dropped during a long transfer. Disarmed, rt is returned
// unchanged.
func Transport(name string, rt http.RoundTripper) http.RoundTripper {
	if rt == nil {
		rt = http.DefaultTransport
	}
	return &faultTransport{name: name, rt: rt}
}

type faultTransport struct {
	name string
	rt   http.RoundTripper
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := lookup(ft.name)
	if s == nil {
		return ft.rt.RoundTrip(req)
	}
	sp, hit := s.fire()
	if !hit {
		return ft.rt.RoundTrip(req)
	}
	if sp.Delay > 0 {
		select {
		case <-time.After(sp.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if sp.DelayOnly() {
		return ft.rt.RoundTrip(req)
	}
	if !sp.Partial {
		return nil, sp.Error()
	}
	resp, err := ft.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &severedBody{rc: resp.Body, remain: 1 << 12, err: sp.Error()}
	return resp, nil
}

// severedBody reads through up to remain bytes, then fails — a response
// whose connection died mid-body.
type severedBody struct {
	rc     io.ReadCloser
	remain int
	err    error
}

func (sb *severedBody) Read(p []byte) (int, error) {
	if sb.remain <= 0 {
		return 0, sb.err
	}
	if len(p) > sb.remain {
		p = p[:sb.remain]
	}
	n, err := sb.rc.Read(p)
	sb.remain -= n
	if err == io.EOF {
		return n, io.EOF // body shorter than the sever point: pass through
	}
	if sb.remain <= 0 && err == nil {
		err = sb.err
	}
	return n, err
}

func (sb *severedBody) Close() error { return sb.rc.Close() }

// SiteStat is one armed site's counters, for diagnostics and tests.
type SiteStat struct {
	Site    string `json:"site"`
	Reaches int64  `json:"reaches"`
	Fired   int64  `json:"fired"`
}

// Stats returns the armed sites' reach/fire counters, sorted by site name.
// Empty when injection is disabled.
func Stats() []SiteStat {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]SiteStat, 0, len(reg))
	for name, s := range reg {
		s.mu.Lock()
		out = append(out, SiteStat{Site: name, Reaches: s.reaches, Fired: s.fired})
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}
