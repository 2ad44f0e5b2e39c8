package httpapi

// The response side of the query endpoints: searchResponse, batchResponse and
// compareResponse say what a response is, and the append functions below
// write the bytes encoding/json writes for them without reflecting over them
// on every request (TestResponseEncodingMatchesEncodingJSON compares the
// two). The one thing they do not write is a NaN or ±Inf, which encoding/json
// refuses: they report !ok and the handler answers through WriteJSON, as it
// always did.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
)

type ciJSON struct {
	Center     float64 `json:"center"`
	MoE        float64 `json:"moe"`
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
	Confidence float64 `json:"confidence"`
}

// outcomeJSON is the part of a searchResponse only the Outcome decides.
type outcomeJSON struct {
	Community []graph.NodeID `json:"community,omitempty"`
	Size      int            `json:"size"`
	Delta     float64        `json:"delta"`
	CI        ciJSON         `json:"ci"`
	Satisfied bool           `json:"satisfied"`
	States    int64          `json:"states,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
}

type searchResponse struct {
	Query  int64  `json:"query"`
	Method string `json:"method,omitempty"`
	outcomeJSON
	Metrics engine.QueryMetrics `json:"metrics"`
	Err     string              `json:"err,omitempty"`
}

type batchResponse struct {
	Items []searchResponse `json:"items"`
}

type compareResponse struct {
	Query int64 `json:"query"`
	// Best names the method with the smallest δ among the successful runs
	// (empty when none succeeded).
	Best  string           `json:"best,omitempty"`
	Items []searchResponse `json:"items"`
}

func toOutcomeJSON(out *query.Outcome) outcomeJSON {
	return outcomeJSON{
		Community: out.Community, Size: len(out.Community), Delta: out.Delta,
		CI:        ciJSON{Center: out.CI.Center, MoE: out.CI.MoE, Lo: out.CI.Lo(), Hi: out.CI.Hi(), Confidence: out.CI.Confidence},
		Satisfied: out.Satisfied, States: out.States, Truncated: out.Truncated,
	}
}

func toResponse(it *engine.BatchItem) searchResponse {
	resp := searchResponse{Query: int64(it.Request.Query), Method: it.Request.Method.String(), Metrics: it.Metrics}
	if it.Err != nil {
		resp.Err = it.Err.Error()
	}
	if it.Outcome != nil {
		resp.outcomeJSON = toOutcomeJSON(it.Outcome)
	}
	return resp
}

func toResponses(items []engine.BatchItem) []searchResponse {
	resp := make([]searchResponse, len(items))
	for i := range items {
		resp[i] = toResponse(&items[i])
	}
	return resp
}

// renderOutcome is outcomeJSON's members as encoding/json writes them, or nil
// when it refuses (a number that is not finite). An Outcome the engine
// returns is shared by every request it answers and never changes, so this
// runs once per Outcome (query.Outcome.Rendered) and each response copies
// the result.
func renderOutcome(o *query.Outcome) []byte {
	b, err := json.Marshal(toOutcomeJSON(o))
	if err != nil {
		return nil
	}
	return b[1 : len(b)-1]
}

// noOutcome is renderOutcome for an item without one.
var noOutcome = renderOutcome(new(query.Outcome))

// appendItem appends it as json.Marshal(toResponse(it)) would.
func appendItem(b []byte, it *engine.BatchItem) ([]byte, bool) {
	rendered := noOutcome
	if it.Outcome != nil {
		if rendered = it.Outcome.Rendered(renderOutcome); rendered == nil {
			return b, false
		}
	}
	b = strconv.AppendInt(append(b, `{"query":`...), int64(it.Request.Query), 10)
	b = appendString(append(b, `,"method":`...), it.Request.Method.String())
	b = append(append(b, ','), rendered...)
	m := &it.Metrics
	b = strconv.AppendInt(append(b, `,"metrics":{"query":`...), m.Query, 10)
	b = strconv.AppendInt(append(b, `,"k":`...), int64(m.K), 10)
	b = appendString(append(b, `,"model":`...), m.Model)
	b = appendString(append(b, `,"method":`...), m.Method)
	b = strconv.AppendBool(append(b, `,"result_hit":`...), m.ResultHit)
	b = strconv.AppendBool(append(b, `,"coalesced":`...), m.Coalesced)
	b = strconv.AppendBool(append(b, `,"shed":`...), m.Shed)
	b = strconv.AppendBool(append(b, `,"index_hit":`...), m.IndexHit)
	b = strconv.AppendInt(append(b, `,"index_ns":`...), m.IndexNS, 10)
	//lint:ignore SA1019 dist_ns stays on the wire, written as encoding/json writes it
	b = strconv.AppendInt(append(b, `,"dist_ns":`...), m.DistNS, 10)
	b = strconv.AppendInt(append(b, `,"search_ns":`...), m.SearchNS, 10)
	b = strconv.AppendInt(append(b, `,"total_ns":`...), m.TotalNS, 10)
	b = appendString(append(b, `,"err":`...), m.Err)
	b = append(b, '}')
	if it.Err != nil && it.Err.Error() != "" {
		b = appendString(append(b, `,"err":`...), it.Err.Error())
	}
	return append(b, '}'), true
}

// appendItems appends the "items" member that ends a batchResponse and a
// compareResponse, the closing brace, and the newline that ends a body.
func appendItems(b []byte, items []engine.BatchItem) ([]byte, bool) {
	b = append(b, `"items":[`...)
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendItem(b, &items[i]); !ok {
			return b, false
		}
	}
	return append(b, "]}\n"...), true
}

// appendSearch appends the body of a /search response.
func appendSearch(b []byte, it *engine.BatchItem) ([]byte, bool) {
	b, ok := appendItem(b, it)
	return append(b, '\n'), ok
}

// appendBatch appends the body of a /batch response.
func appendBatch(b []byte, items []engine.BatchItem) ([]byte, bool) {
	return appendItems(append(b, '{'), items)
}

// appendCompare appends the body of a /compare response.
func appendCompare(b []byte, q int64, best string, items []engine.BatchItem) ([]byte, bool) {
	b = strconv.AppendInt(append(b, `{"query":`...), q, 10)
	if best != "" {
		b = appendString(append(b, `,"best":`...), best)
	}
	return appendItems(append(b, ','), items)
}

// appendString appends s quoted. Plain ASCII is copied; a string holding
// anything encoding/json would escape or replace — a quote, a backslash, a
// control byte, <, > or &, anything outside ASCII — is encoding/json's to
// write.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// writeBody writes a body the append functions built, under the headers
// WriteJSON sets.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	writeJSONHeader(w, status)
	w.Write(body)
}
