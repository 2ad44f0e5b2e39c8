package httpapi

// The request side of the query endpoints: the wire form, the one table of
// its fields, and that table's two readers — wireFromQuery for a GET's URL
// parameters, scanWire for a POST's body.

import (
	"bytes"
	"encoding"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/query"
)

// wireRequest is the JSON wire form shared by /search, /batch and /compare:
// the fields of query.Request plus the endpoint-specific Q/Queries/Methods.
// The outer Q shadows the embedded Request's "q" tag so a missing query
// node is distinguishable from node 0.
type wireRequest struct {
	Q       *int64   `json:"q"`
	Queries []int64  `json:"queries"`
	Methods []string `json:"methods"`
	query.Request
}

// queryNode returns the request's "q" as a node ID.
func (w *wireRequest) queryNode() (graph.NodeID, error) {
	if w.Q == nil {
		return 0, cserr.Invalidf("missing query node \"q\"")
	}
	return toNodeID(*w.Q)
}

// wireField is one field of the wire request: its name — a POST body's key
// and a GET's URL parameter — and where it lands; the type dst points to is
// the field's kind. The struct tags above and in query.Request say the names
// once more, for encoding/json, and the differential tests hold the two
// together.
type wireField struct {
	name string
	dst  func(*wireRequest) any
}

// wireFields is every field a request can carry. A GET reports its first
// malformed parameter in this order.
var wireFields = [...]wireField{
	{"q", func(w *wireRequest) any { return &w.Q }},
	{"method", func(w *wireRequest) any { return &w.Method }},
	{"model", func(w *wireRequest) any { return &w.Model }},
	{"k", func(w *wireRequest) any { return &w.K }},
	{"size_lo", func(w *wireRequest) any { return &w.SizeLo }},
	{"size_hi", func(w *wireRequest) any { return &w.SizeHi }},
	{"max_rounds", func(w *wireRequest) any { return &w.MaxRounds }},
	{"seed", func(w *wireRequest) any { return &w.Seed }},
	{"max_states", func(w *wireRequest) any { return &w.MaxStates }},
	{"e", func(w *wireRequest) any { return &w.ErrorBound }},
	{"confidence", func(w *wireRequest) any { return &w.Confidence }},
	{"lambda", func(w *wireRequest) any { return &w.Lambda }},
	{"eps", func(w *wireRequest) any { return &w.Eps }},
	{"beta", func(w *wireRequest) any { return &w.Beta }},
	{"no_refine", func(w *wireRequest) any { return &w.NoRefine }},
	{"graph", func(w *wireRequest) any { return &w.Graph }},
	{"methods", func(w *wireRequest) any { return &w.Methods }},
	{"queries", func(w *wireRequest) any { return &w.Queries }},
}

// wireFromQuery fills wire from URL query parameters (GET endpoints). An
// absent or empty parameter leaves its field alone.
func wireFromQuery(r *http.Request, wire *wireRequest) error {
	vals := r.URL.Query()
	for _, f := range wireFields {
		s := vals.Get(f.name)
		if s == "" {
			continue
		}
		var err error
		switch p := f.dst(wire).(type) {
		case **int64:
			var v int64
			v, err = strconv.ParseInt(s, 10, 64)
			*p = &v
		case *int:
			*p, err = strconv.Atoi(s)
		case *int64:
			*p, err = strconv.ParseInt(s, 10, 64)
		case *float64:
			*p, err = strconv.ParseFloat(s, 64)
		case *bool:
			*p = s == "true"
		case *string:
			*p = s
		case encoding.TextUnmarshaler:
			// Method and model names: their own error says what is accepted.
			if err := p.UnmarshalText([]byte(s)); err != nil {
				return err
			}
		case *[]string:
			*p = strings.Split(s, ",")
		case *[]int64:
			// "queries" belongs to /batch, which has no GET form.
		}
		if err != nil {
			return cserr.Invalidf("bad %s=%q", f.name, s)
		}
	}
	return nil
}

// scanWire fills wire from body when body is the shape every client sends —
// one flat JSON object whose keys are wireFields names, each at most once,
// holding JSON-grammar numbers, true/false, escape-free ASCII strings and
// non-empty arrays of those — and reports whether it did. It only ever
// declines: on a false return (wire is then partly filled) the caller hands
// body to encoding/json, which stays the definition of every edge case and
// every error. FuzzWireDecode: whatever scanWire accepts, encoding/json
// decodes to the same wireRequest.
func scanWire(body []byte, wire *wireRequest) bool {
	s := scanner{b: body}
	if !s.eat('{') {
		return false
	}
	var seen uint32
	for more := !s.eat('}'); more; {
		key, ok := s.str()
		i := 0
		for i < len(wireFields) && string(key) != wireFields[i].name {
			i++
		}
		if !ok || i == len(wireFields) || seen&(1<<i) != 0 || !s.eat(':') || !s.value(wireFields[i].dst(wire)) {
			return false
		}
		seen |= 1 << i
		if more = s.eat(','); !more && !s.eat('}') {
			return false
		}
	}
	s.space()
	return s.i == len(s.b)
}

// scanner is scanWire's cursor over the body.
type scanner struct {
	b []byte
	i int
}

// at reports whether c is the next byte.
func (s *scanner) at(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

func (s *scanner) space() {
	for s.at(' ') || s.at('\t') || s.at('\n') || s.at('\r') {
		s.i++
	}
}

// eat consumes c, after any white space, if it is next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if !s.at(c) {
		return false
	}
	s.i++
	return true
}

// value scans the value of the field dst points to into it.
func (s *scanner) value(dst any) (ok bool) {
	s.space()
	switch p := dst.(type) {
	case **int64:
		*p = new(int64)
		**p, ok = s.int(64)
	case *int64:
		*p, ok = s.int(64)
	case *int:
		var v int64
		v, ok = s.int(strconv.IntSize)
		*p = int(v)
	case *float64:
		var err error
		*p, err = strconv.ParseFloat(string(s.number()), 64)
		ok = err == nil
	case *bool:
		*p = s.at('t')
		lit := strconv.FormatBool(*p)
		if ok = bytes.HasPrefix(s.b[s.i:], []byte(lit)); ok {
			s.i += len(lit)
		}
	case *string:
		var v []byte
		v, ok = s.str()
		*p = string(v)
	case encoding.TextUnmarshaler: // a method or model name
		var v []byte
		v, ok = s.str()
		ok = ok && p.UnmarshalText(v) == nil
	case *[]int64:
		ok = scanList(s, p, func() (int64, bool) { s.space(); return s.int(64) })
	case *[]string:
		ok = scanList(s, p, func() (string, bool) { v, ok := s.str(); return string(v), ok })
	}
	return ok
}

// scanList scans a non-empty array into *p; an empty one decodes to an empty
// non-nil slice, which is encoding/json's to produce.
func scanList[T any](s *scanner, p *[]T, elem func() (T, bool)) bool {
	if !s.eat('[') || s.at(']') {
		return false
	}
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return false
	}
	// One element per comma and one more; a "]" or "," inside a string only
	// makes this a wrong guess.
	*p = make([]T, 0, 1+bytes.Count(s.b[s.i:s.i+end], []byte(",")))
	for {
		v, ok := elem()
		if !ok {
			return false
		}
		if *p = append(*p, v); !s.eat(',') {
			return s.eat(']')
		}
	}
}

// int scans an integer of the given bit size.
func (s *scanner) int(bits int) (int64, bool) {
	v, err := strconv.ParseInt(string(s.number()), 10, bits)
	return v, err == nil
}

// number consumes the JSON-grammar number at the cursor; nil when there is
// none. What follows it is the caller's to check.
func (s *scanner) number() []byte {
	start := s.i
	digits := func() bool {
		from := s.i
		for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
			s.i++
		}
		return s.i > from
	}
	if s.at('-') {
		s.i++
	}
	if s.at('0') {
		s.i++
	} else if !digits() {
		return nil
	}
	if s.at('.') {
		if s.i++; !digits() {
			return nil
		}
	}
	if s.at('e') || s.at('E') {
		if s.i++; s.at('+') || s.at('-') {
			s.i++
		}
		if !digits() {
			return nil
		}
	}
	return s.b[start:s.i]
}

// str consumes, after any white space, a string with no escapes and only
// printable ASCII, and returns what is between its quotes.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < ' ' || c >= utf8.RuneSelf || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// scratch is what one request to a query endpoint works in: the decoded
// request, and the bytes the body is read into and then (nothing decoded
// points into them) the response is encoded into.
type scratch struct {
	wire wireRequest
	b    []byte
}

// maxPooledScratch is the largest buffer kept for reuse: one body near
// MaxBodyBytes or one 10⁴-node community must not stay pinned in the pool.
const maxPooledScratch = 64 << 10

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.wire = wireRequest{}
	return sc
}

func putScratch(sc *scratch) {
	if cap(sc.b) <= maxPooledScratch {
		scratchPool.Put(sc)
	}
}

// readBody appends r's body to buf under the MaxBodyBytes cap; on an error
// (*http.MaxBytesError for an overlong body) it returns what it read with it.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	for {
		buf = slices.Grow(buf, 512)
		n, err := body.Read(buf[len(buf):cap(buf)])
		if buf = buf[:len(buf)+n]; err == io.EOF {
			return buf, nil
		} else if err != nil {
			return buf, err
		}
	}
}

// errReader is a reader that has already failed.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeBody decodes the body of a POST into sc.wire: by scanWire when it
// accepts, otherwise by the decoder every other endpoint uses over the same
// bytes — followed by the read error if reading stopped at one, so an
// overlong body answers what it did when it was decoded as it arrived.
func decodeBody(w http.ResponseWriter, r *http.Request, sc *scratch) error {
	var readErr error
	sc.b, readErr = readBody(w, r, sc.b[:0])
	if readErr == nil && scanWire(sc.b, &sc.wire) {
		return nil
	}
	sc.wire = wireRequest{}
	var body io.Reader = bytes.NewReader(sc.b)
	if readErr != nil {
		body = io.MultiReader(body, errReader{readErr})
	}
	return decodeJSON(body, &sc.wire)
}
