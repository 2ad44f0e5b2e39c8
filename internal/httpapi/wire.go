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
	"repro/internal/engine"
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

// fieldIndex returns the index in wireFields of the field named key, -1 for
// a name that is none of theirs. TestFieldIndexMatchesTable holds the two
// together.
func fieldIndex(key []byte) int {
	switch string(key) {
	case "q":
		return 0
	case "method":
		return 1
	case "model":
		return 2
	case "k":
		return 3
	case "size_lo":
		return 4
	case "size_hi":
		return 5
	case "max_rounds":
		return 6
	case "seed":
		return 7
	case "max_states":
		return 8
	case "e":
		return 9
	case "confidence":
		return 10
	case "lambda":
		return 11
	case "eps":
		return 12
	case "beta":
		return 13
	case "no_refine":
		return 14
	case "graph":
		return 15
	case "methods":
		return 16
	case "queries":
		return 17
	}
	return -1
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
			if !*p && s != "false" {
				err = strconv.ErrSyntax
			}
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
func scanWire(body []byte, wire *wireRequest) bool { return scan(body, wire, new(spare)) }

// spare is what a scan fills instead of allocating, kept by a scratch from
// one request to the next: "q" lands in q, and the graph name, the queries
// and the methods reuse the previous body's string and arrays where the new
// body repeats or fits them. It has one slot per kind of field, as the table
// has one field of each of these kinds (TestSpareKindsAreUnique). A request
// a scan filled points into its spare until the next scan with it.
type spare struct {
	q       int64
	graph   string
	queries []int64
	methods []string
}

// scan is scanWire filling sp in place of fresh allocations.
func scan(body []byte, wire *wireRequest, sp *spare) bool {
	b := wireBody(body)
	i := b.space(0)
	if !b.at(i, '{') {
		return false
	}
	if i = b.space(i + 1); b.at(i, '}') {
		return b.space(i+1) == len(b)
	}
	var seen uint32
	for {
		key, j, ok := b.str(i)
		f := fieldIndex(key)
		if !ok || f < 0 || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		if j = b.space(j); !b.at(j, ':') {
			return false
		}
		if i, ok = b.value(b.space(j+1), wireFields[f].dst(wire), sp); !ok {
			return false
		}
		switch i = b.space(i); {
		case b.at(i, ','):
			i = b.space(i + 1)
		case b.at(i, '}'):
			return b.space(i+1) == len(b)
		default:
			return false
		}
	}
}

// wireBody is the body scanWire reads. Its readers take the index to read at
// and return the index after what they read, so the cursor is a value the
// compiler keeps in a register.
type wireBody []byte

// at reports whether c is at i.
func (b wireBody) at(i int, c byte) bool { return i < len(b) && b[i] == c }

// space returns the index of the first byte at or after i that is not white
// space.
func (b wireBody) space(i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// The two JSON literals a boolean field takes.
var (
	litTrue  = []byte("true")
	litFalse = []byte("false")
)

// value reads the value at i of the field dst points to into it, or into
// sp and dst to that.
func (b wireBody) value(i int, dst any, sp *spare) (int, bool) {
	var ok bool
	switch p := dst.(type) {
	case **int64:
		sp.q, i, ok = b.int(i, 64)
		*p = &sp.q
	case *int64:
		*p, i, ok = b.int(i, 64)
	case *int:
		var v int64
		v, i, ok = b.int(i, strconv.IntSize)
		*p = int(v)
	case *float64:
		*p, i, ok = b.float(i)
	case *bool:
		switch rest := b[i:]; {
		case bytes.HasPrefix(rest, litTrue):
			*p, i, ok = true, i+len(litTrue), true
		case bytes.HasPrefix(rest, litFalse):
			*p, i, ok = false, i+len(litFalse), true
		}
	case *string:
		i, ok = b.strInto(i, &sp.graph)
		*p = sp.graph
	case encoding.TextUnmarshaler: // a method or model name
		var v []byte
		v, i, ok = b.str(i)
		ok = ok && p.UnmarshalText(v) == nil
	case *[]int64:
		i, ok = scanList(b, i, &sp.queries, func(i int, v *int64) (int, bool) {
			var ok bool
			*v, i, ok = b.int(i, 64)
			return i, ok
		})
		*p = sp.queries
	case *[]string:
		i, ok = scanList(b, i, &sp.methods, b.strInto)
		*p = sp.methods
	}
	return i, ok
}

// scanList reads the non-empty array at i into *p, in the array *p already
// has when that is long enough; elem reads one element into its slot, which
// holds what the previous array held there. An empty array decodes to an
// empty non-nil slice, which is encoding/json's to produce.
func scanList[T any](b wireBody, i int, p *[]T, elem func(int, *T) (int, bool)) (int, bool) {
	if !b.at(i, '[') {
		return i, false
	}
	if i = b.space(i + 1); b.at(i, ']') {
		return i, false
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return i, false
	}
	// One element per comma and one more; a "]" or "," inside a string only
	// makes this a wrong guess.
	if n := 1 + bytes.Count(b[i:i+end], []byte(",")); cap(*p) < n {
		*p = make([]T, n)
	}
	list := (*p)[:0]
	for {
		if len(list) < cap(list) {
			list = list[:len(list)+1]
		} else {
			var zero T
			list = append(list, zero)
		}
		j, ok := elem(i, &list[len(list)-1])
		if !ok {
			return j, false
		}
		switch j = b.space(j); {
		case b.at(j, ','):
			i = b.space(j + 1)
		case b.at(j, ']'):
			*p = list
			return j + 1, true
		default:
			return j, false
		}
	}
}

// int reads the integer of the given bit size at i: a JSON number with
// neither fraction nor exponent, in range. JSON allows no leading zeros, so
// more than 19 digits is out of range for any size.
func (b wireBody) int(i, bits int) (int64, int, bool) {
	digits, end := b.number(i)
	neg := len(digits) > 0 && digits[0] == '-'
	if neg {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 19 {
		return 0, end, false
	}
	var v uint64
	for _, c := range digits {
		if c-'0' > 9 { // '.', 'e' or 'E' and what follows
			return 0, end, false
		}
		v = v*10 + uint64(c-'0')
	}
	if limit := uint64(1) << (bits - 1); v > limit || v == limit && !neg {
		return 0, end, false
	}
	if neg {
		return -int64(v), end, true
	}
	return int64(v), end, true
}

// exactPow10 holds the powers of ten a float64 represents exactly and that
// float's fast path divides by.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// float reads the number at i. A decimal of at most 15 digits with no
// exponent is an exact integer over an exact power of ten, and one IEEE
// division rounds that quotient correctly — so it is strconv's answer,
// reached without strconv. Any other number goes to strconv.ParseFloat.
func (b wireBody) float(i int) (float64, int, bool) {
	num, end := b.number(i)
	digits := num
	neg := len(digits) > 0 && digits[0] == '-'
	if neg {
		digits = digits[1:]
	}
	var m uint64
	n, frac := 0, -1 // digits read; digits after the point, -1 before it
	for _, c := range digits {
		switch {
		case c-'0' <= 9:
			m = m*10 + uint64(c-'0')
			n++
			if frac >= 0 {
				frac++
			}
		case c == '.':
			frac = 0
		default: // an exponent
			n = len(exactPow10)
		}
	}
	if n == 0 || n >= len(exactPow10) {
		f, err := strconv.ParseFloat(string(num), 64)
		return f, end, err == nil
	}
	f := float64(m) / exactPow10[max(frac, 0)]
	if neg {
		f = -f
	}
	return f, end, true
}

// number returns the JSON-grammar number at i and the index after it; nil
// and i when there is none. What follows it is the caller's to check.
func (b wireBody) number(i int) ([]byte, int) {
	start := i
	if b.at(i, '-') {
		i++
	}
	switch {
	case b.at(i, '0'):
		i++
	case b.digit(i):
		i = b.digits(i)
	default:
		return nil, start
	}
	if b.at(i, '.') {
		if !b.digit(i + 1) {
			return nil, start
		}
		i = b.digits(i + 1)
	}
	if b.at(i, 'e') || b.at(i, 'E') {
		if i++; b.at(i, '+') || b.at(i, '-') {
			i++
		}
		if !b.digit(i) {
			return nil, start
		}
		i = b.digits(i)
	}
	return b[start:i], i
}

// digit reports whether a decimal digit is at i.
func (b wireBody) digit(i int) bool { return i < len(b) && b[i]-'0' <= 9 }

// digits returns the index after the run of digits at i.
func (b wireBody) digits(i int) int {
	for b.digit(i) {
		i++
	}
	return i
}

// plain marks the bytes a string str reads may hold: printable ASCII but the
// quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// strInto reads the string at i into *s, keeping the string *s holds when it
// is the same.
func (b wireBody) strInto(i int, s *string) (int, bool) {
	v, i, ok := b.str(i)
	if string(v) != *s {
		*s = string(v)
	}
	return i, ok
}

// str reads the string at i — no escapes, only printable ASCII — and
// returns what is between its quotes.
func (b wireBody) str(i int) ([]byte, int, bool) {
	if !b.at(i, '"') {
		return nil, i, false
	}
	j := i + 1
	for j < len(b) && plain[b[j]] {
		j++
	}
	if !b.at(j, '"') {
		return nil, j, false
	}
	return b[i+1 : j], j + 1, true
}

// scratch is what one request to a query endpoint works in: the decoded
// request, the bytes the body is read into and then (nothing decoded points
// into them) the response is encoded into, and the items a /batch or
// /compare answers.
type scratch struct {
	wire  wireRequest
	spare spare
	b     []byte
	items []engine.BatchItem
}

// batchItems returns n items of the scratch, zero-valued.
func (sc *scratch) batchItems(n int) []engine.BatchItem {
	if cap(sc.items) < n {
		sc.items = make([]engine.BatchItem, n)
	}
	sc.items = sc.items[:n]
	return sc.items
}

// maxPooledScratch is the largest buffer kept for reuse: one body near
// MaxBodyBytes or one 10⁴-node community must not stay pinned in the pool.
// maxPooledItems is its counterpart for the items of a batch.
const (
	maxPooledScratch = 64 << 10
	maxPooledItems   = 64
)

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.wire = wireRequest{}
	return sc
}

func putScratch(sc *scratch) {
	// The items hold the outcomes they answered with; a pooled scratch must
	// not keep those alive, and the next batchItems hands them out zeroed.
	clear(sc.items)
	if cap(sc.items) > maxPooledItems {
		sc.items = nil
	}
	if cap(sc.spare.queries) > maxPooledItems {
		sc.spare.queries = nil
	}
	if cap(sc.spare.methods) > maxPooledItems {
		sc.spare.methods = nil
	}
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
	if readErr == nil && scan(sc.b, &sc.wire, &sc.spare) {
		return nil
	}
	sc.wire = wireRequest{}
	var body io.Reader = bytes.NewReader(sc.b)
	if readErr != nil {
		body = io.MultiReader(body, errReader{readErr})
	}
	return decodeJSON(body, &sc.wire)
}
