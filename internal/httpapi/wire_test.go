package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// clientBodies are the request shapes clients actually send (benchmark/ops.go,
// README, seaload, the router's shard requests); scanWire must accept them,
// or the fast path is dead code.
var clientBodies = []string{
	`{"q":12,"k":6}`,
	`{"graph":"twitter","q":123,"method":"sea","k":4,"model":"core","e":0.02,"confidence":0.95,"seed":1}`,
	`{"graph":"twitch","queries":[1,2,3,4,5,6,7,8],"method":"sea","k":4,"model":"truss","e":0.02,"confidence":0.95,"seed":7}`,
	`{"graph":"twitter","q":9,"methods":["sea","structural"],"k":4,"model":"core","e":0.02,"confidence":0.95,"seed":1}`,
	`{"q":10,"k":4,"method":"exact","max_states":200000}`,
	"{\n  \"q\": 0,\n  \"no_refine\": true,\n  \"size_lo\": 3, \"size_hi\": 9,\r\n\t\"lambda\": 2.5e-1, \"eps\": 0.3, \"beta\": 0.3, \"max_rounds\": 4\n}\n",
	`{"q":-0,"seed":-9223372036854775808,"e":-0.0,"model":"","confidence":1E+0}`,
	`{}`,
}

// declinedBodies are all valid JSON requests scanWire leaves to
// encoding/json; some decode fine there, some are errors.
var declinedBodies = []string{
	`01`, `null`, `[]`, `"q"`, ` `, ``,
	`{"k":1.0}`, `{"k":01}`, `{"e":1e999}`, `{"e":.5}`, `{"e":1.}`, `{"e":+1}`, `{"e":1e}`,
	`{"q":1,"q":2}`, `{"Q":1}`, `{"unknown":1}`, `{"BLB":{}}`,
	`{"q":null}`, `{"q":12345678901234567890}`, `{"k":"4"}`, `{"no_refine":1}`, `{"no_refine":truex}`,
	`{"q":1} x`, `{"q":1}{"q":2}`, `{"q":1,}`, `{,"q":1}`, `{"q":1`, `{"q" 1}`,
	`{"graph":"\u0041"}`, `{"graph":"é"}`, `{"gr\u0061ph":"a"}`, "{\"graph\":\"a\tb\"}",
	`{"method":"bogus"}`, `{"model":"clique"}`, `{"method":7}`,
	`{"queries":[]}`, `{"methods":[]}`, `{"queries":[1,]}`, `{"queries":[1.5]}`, `{"queries":1}`, `{"queries":]}`,
	`{"methods":["sea",7]}`, `{"methods":["a\"b"]}`, `{"queries":[1,2}`, `{"queries":[[1]]}`,
}

// checkScanAgainstJSON is the property FuzzWireDecode searches with: when
// scanWire accepts body, the decoder it stands in for accepts it too and
// fills the same wireRequest.
func checkScanAgainstJSON(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var got, want wireRequest
	if !scanWire(body, &got) {
		return false
	}
	if err := decodeJSON(bytes.NewReader(body), &want); err != nil {
		t.Fatalf("scanWire accepted %q, which encoding/json rejects: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q\nscanWire      %+v\nencoding/json %+v", body, got, want)
	}
	return true
}

func TestScanWire(t *testing.T) {
	for _, body := range clientBodies {
		if !checkScanAgainstJSON(t, []byte(body)) {
			t.Errorf("scanWire declines a body clients send: %s", body)
		}
	}
	for _, body := range declinedBodies {
		if checkScanAgainstJSON(t, []byte(body)) {
			t.Errorf("scanWire accepts %s", body)
		}
	}
}

func FuzzWireDecode(f *testing.F) {
	for _, body := range clientBodies {
		f.Add([]byte(body))
	}
	for _, body := range declinedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkScanAgainstJSON(t, body) })
}

// TestWireFieldsGetEqualsPost: every field of the table is a URL parameter
// of a GET and a key of a POST body, and both spellings of a value fill the
// same wireRequest — so a field added to the table is served by both entry
// points, and one that is not added is served by neither fast path.
func TestWireFieldsGetEqualsPost(t *testing.T) {
	covered := 0
	for _, f := range wireFields {
		var param, value string
		switch f.dst(new(wireRequest)).(type) {
		case **int64, *int, *int64:
			param, value = "7", "7"
		case *float64:
			param, value = "0.3", "0.3"
		case *bool:
			param, value = "true", "true"
		case *string:
			param, value = "fb", `"fb"`
		case *[]string:
			param, value = "sea,exact", `["sea","exact"]`
		case *[]int64:
			continue // "queries": /batch has no GET form
		default: // the two named enumerations
			param, value = map[string]string{"method": "exact", "model": "truss"}[f.name], ""
			value = `"` + param + `"`
		}
		var get, scanned, decoded wireRequest
		r := httptest.NewRequest(http.MethodGet, "/search?"+f.name+"="+param, nil)
		if err := wireFromQuery(r, &get); err != nil {
			t.Fatalf("GET ?%s=%s: %v", f.name, param, err)
		}
		body := []byte(fmt.Sprintf(`{%q:%s}`, f.name, value))
		if !scanWire(body, &scanned) {
			t.Fatalf("scanWire declines %s", body)
		}
		if err := decodeJSON(bytes.NewReader(body), &decoded); err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		if reflect.DeepEqual(get, wireRequest{}) {
			t.Errorf("GET ?%s=%s left the request empty", f.name, param)
		}
		if !reflect.DeepEqual(get, scanned) || !reflect.DeepEqual(get, decoded) {
			t.Errorf("field %s:\nGET   %+v\nscan  %+v\nPOST  %+v", f.name, get, scanned, decoded)
		}
		if get.Request.WithDefaults() != decoded.Request.WithDefaults() {
			t.Errorf("field %s canonicalises differently by GET and POST", f.name)
		}
		covered++
	}
	// Every json-tagged field of the wire form is in the table: the struct
	// tags are the other place the names are written.
	tagged := 0
	var count func(reflect.Type)
	count = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); {
			case f.Anonymous:
				count(f.Type)
			case f.Tag.Get("json") != "-":
				tagged++
			}
		}
	}
	count(reflect.TypeOf(wireRequest{}))
	// "q" is tagged twice (the outer Q shadows Request.Query) and "queries"
	// was skipped above.
	if tagged-1 != len(wireFields) || covered != len(wireFields)-1 {
		t.Errorf("wireRequest has %d tagged fields, the table %d rows, %d compared", tagged, len(wireFields), covered)
	}
}

// TestServerGetHonoursEpsBeta: ?eps=&beta= used to be dropped by the GET
// form while the POST body honoured them and keyed the cache on them.
func TestServerGetHonoursEpsBeta(t *testing.T) {
	srv, e := testServer(t)
	q := int64(testDataset(t).QueryNodes(1, 6, 3)[0])
	var post, get, plain searchResponse
	postJSON(t, srv.URL+"/search", fmt.Sprintf(`{"q":%d,"k":6,"eps":0.3,"beta":0.3}`, q), http.StatusOK, &post)
	getJSON(t, fmt.Sprintf("%s/search?q=%d&k=6&eps=0.3&beta=0.3", srv.URL, q), http.StatusOK, &get)
	if post.Metrics.ResultHit || !get.Metrics.ResultHit {
		t.Fatalf("GET with eps/beta should hit the entry the POST made: post %+v get %+v", post.Metrics, get.Metrics)
	}
	getJSON(t, fmt.Sprintf("%s/search?q=%d&k=6", srv.URL, q), http.StatusOK, &plain)
	if plain.Metrics.ResultHit || e.Stats().SearchRuns != 2 {
		t.Fatalf("the default eps/beta is another cache key: %+v, runs %d", plain.Metrics, e.Stats().SearchRuns)
	}
}

// TestBodyErrorsUnchangedByBuffering: reading the body before decoding it
// answers what decoding it as it arrived answered, for bodies that are
// overlong, malformed, or both.
func TestBodyErrorsUnchangedByBuffering(t *testing.T) {
	e, _, _ := testEngine(t, engine.DefaultConfig())
	h := engineHandler(t, e)
	pad := strings.Repeat(" ", MaxBodyBytes)
	for _, tc := range []struct {
		name, body string
		status     int
		errText    string
	}{
		{"overlong", `{"q":1,"graph":"` + strings.Repeat("g", MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, "request body too large"},
		{"malformed then overlong", `{"q":!` + pad, http.StatusBadRequest, "bad request body: invalid character '!'"},
		{"value then overlong padding", `{"q":1}` + pad, http.StatusBadRequest, "trailing data after JSON request body"},
		{"value then garbage", `{"q":1} x`, http.StatusBadRequest, "trailing data after JSON request body"},
		{"truncated", `{"q":1`, http.StatusBadRequest, "bad request body: unexpected EOF"},
	} {
		for _, path := range []string{"/search", "/batch", "/compare"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body)))
			if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.errText) {
				t.Errorf("%s %s: %d %s, want %d %q", path, tc.name, rec.Code, rec.Body, tc.status, tc.errText)
			}
		}
	}
	// A body of exactly MaxBodyBytes is read whole and decoded.
	const head = `{"q":99999999}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(head+pad[len(head):])))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "outside the graph") {
		t.Errorf("body at the cap: %d %s", rec.Code, rec.Body)
	}
}

// TestScratchPoolDropsLargeBuffers: a request that grew its buffer to hold a
// 512 KiB body must not leave that buffer in the pool for every later 100-byte
// request to carry.
func TestScratchPoolDropsLargeBuffers(t *testing.T) {
	e, _, _ := testEngine(t, engine.DefaultConfig())
	h := engineHandler(t, e)
	body := `{"graph":"elsewhere","queries":[` + strings.Repeat("1,", 256<<10) + `1]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("large batch for an unknown graph: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(`{"q":1,"k":2}`)))
	// The pool hands back what this goroutine put last.
	for i := 0; i < 4; i++ {
		if sc := getScratch(); cap(sc.b) > maxPooledScratch {
			t.Fatalf("pooled buffer of %d bytes after a %d-byte body", cap(sc.b), len(body))
		}
	}
}

// TestFieldIndexMatchesTable: the key switch scanWire dispatches on names
// every row of wireFields, at that row's index, and nothing else.
func TestFieldIndexMatchesTable(t *testing.T) {
	for i, f := range wireFields {
		if got := fieldIndex([]byte(f.name)); got != i {
			t.Errorf("fieldIndex(%q) = %d, want %d", f.name, got, i)
		}
	}
	for _, key := range []string{"", "Q", "qq", "graphs", "method ", "BLB", "size"} {
		if got := fieldIndex([]byte(key)); got != -1 {
			t.Errorf("fieldIndex(%q) = %d, want -1", key, got)
		}
	}
}

// TestGetRejectsMalformedParams: a GET parameter its field cannot hold is a
// 400 naming it, booleans included — no_refine takes exactly "true" or
// "false", as the POST form takes exactly the two JSON literals.
func TestGetRejectsMalformedParams(t *testing.T) {
	for _, tc := range []struct{ query, err string }{
		{"k=x", `bad k="x"`},
		{"e=0.x", `bad e="0.x"`},
		{"no_refine=1", `bad no_refine="1"`},
		{"no_refine=yes", `bad no_refine="yes"`},
		{"no_refine=TRUE", `bad no_refine="TRUE"`},
		{"no_refine=garbage", `bad no_refine="garbage"`},
	} {
		var wire wireRequest
		err := wireFromQuery(httptest.NewRequest(http.MethodGet, "/search?q=1&"+tc.query, nil), &wire)
		if err == nil || StatusFor(err) != http.StatusBadRequest || !strings.HasSuffix(err.Error(), tc.err) {
			t.Errorf("?%s: %v, want 400 %s", tc.query, err, tc.err)
		}
	}
	for _, v := range []string{"true", "false"} {
		var wire wireRequest
		if err := wireFromQuery(httptest.NewRequest(http.MethodGet, "/search?q=1&no_refine="+v, nil), &wire); err != nil || wire.NoRefine != (v == "true") {
			t.Errorf("?no_refine=%s: %v, NoRefine %v", v, err, wire.NoRefine)
		}
	}
}

// TestSpareKindsAreUnique: a spare has one slot per kind of field it fills,
// so the table may hold at most one field of each of those kinds — a second
// would share the first one's slot.
func TestSpareKindsAreUnique(t *testing.T) {
	kinds := map[reflect.Type]string{}
	for _, f := range wireFields {
		switch p := f.dst(new(wireRequest)); p.(type) {
		case **int64, *string, *[]int64, *[]string:
			typ := reflect.TypeOf(p)
			if other, dup := kinds[typ]; dup {
				t.Errorf("fields %s and %s are both %v and would share one spare slot", other, f.name, typ)
			}
			kinds[typ] = f.name
		}
	}
}

// TestScanReusesSpare: scanning with the spare of the body before fills the
// same request a fresh scan fills, whatever the two bodies were, and once a
// body has been scanned, scanning it again allocates nothing.
func TestScanReusesSpare(t *testing.T) {
	var sp spare
	for _, prev := range clientBodies {
		for _, body := range clientBodies {
			var reused, fresh wireRequest
			scan([]byte(prev), new(wireRequest), &sp)
			if !scan([]byte(body), &reused, &sp) || !scanWire([]byte(body), &fresh) {
				t.Fatalf("%s declined", body)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("after %s, %s scans to\n%+v, fresh\n%+v", prev, body, reused, fresh)
			}
		}
	}
	for _, body := range clientBodies {
		var wire wireRequest
		b := []byte(body)
		scan(b, &wire, &sp)
		if allocs := testing.AllocsPerRun(10, func() { wire = wireRequest{}; scan(b, &wire, &sp) }); allocs != 0 {
			t.Errorf("rescanning %s allocates %v times", body, allocs)
		}
	}
}
