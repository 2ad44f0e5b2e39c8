package query

import (
	"errors"
	"testing"

	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/sea"
)

// validBase returns a fully valid request the negative-field table perturbs.
func validBase() Request {
	return Request{Query: 3, Method: MethodSEA, K: 4, Seed: 1}.WithDefaults()
}

// TestValidateRejectsNegatives audits every numeric Request field:
// WithDefaults substitutes defaults only on zero, so a negative value must
// be caught by Validate (as ErrInvalidRequest) instead of slipping into a
// solver. This is the regression net for the bug where negative
// K/ErrorBound/Confidence/MaxRounds/size bounds rode a zero-check past
// defaulting.
func TestValidateRejectsNegatives(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Request)
	}{
		{"Query", func(r *Request) { r.Query = -1 }},
		{"K", func(r *Request) { r.K = -4 }},
		{"ErrorBound", func(r *Request) { r.ErrorBound = -0.02 }},
		{"Confidence", func(r *Request) { r.Confidence = -0.95 }},
		{"SizeLo", func(r *Request) { r.SizeLo = -3 }},
		{"SizeHi", func(r *Request) { r.SizeHi = -10 }},
		{"SizeLoHi", func(r *Request) { r.SizeLo, r.SizeHi = -3, -1 }},
		{"MaxStates", func(r *Request) { r.MaxStates = -1; r.Method = MethodExact }},
		{"Lambda", func(r *Request) { r.Lambda = -0.5 }},
		{"Eps", func(r *Request) { r.Eps = -1 }},
		{"Beta", func(r *Request) { r.Beta = -0.25 }},
		{"MaxRounds", func(r *Request) { r.MaxRounds = -2 }},
		{"Method", func(r *Request) { r.Method = Method(-1) }},
		{"Model", func(r *Request) { r.Model = sea.Model(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := validBase()
			tc.mut(&req)
			err := req.Validate()
			if err == nil {
				t.Fatalf("negative %s accepted: %+v", tc.name, req)
			}
			if !errors.Is(err, cserr.ErrInvalidRequest) {
				t.Fatalf("negative %s: error %v does not wrap ErrInvalidRequest", tc.name, err)
			}
			// The canonical form must be rejected identically: WithDefaults
			// must not launder a negative into a default.
			if err := req.WithDefaults().Validate(); !errors.Is(err, cserr.ErrInvalidRequest) {
				t.Fatalf("negative %s laundered by WithDefaults: %v", tc.name, err)
			}
		})
	}
}

// TestValidateNegativeSeedAllowed pins the one deliberate exception: Seed
// is an arbitrary int64 (any value seeds the RNG), so negatives pass.
func TestValidateNegativeSeedAllowed(t *testing.T) {
	req := validBase()
	req.Seed = -7
	if err := req.Validate(); err != nil {
		t.Fatalf("negative seed rejected: %v", err)
	}
}

// TestValidateAcceptsBase sanity-checks the table's starting point.
func TestValidateAcceptsBase(t *testing.T) {
	if err := validBase().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeRequestNeverReachesSolver drives the negative table, and a
// size_lo without a size_hi, through Run against a real graph: every case
// must return ErrInvalidRequest, never a solver panic or result.
func TestNegativeRequestNeverReachesSolver(t *testing.T) {
	b := graph.NewBuilder(6, 1)
	for v := graph.NodeID(0); v < 6; v++ {
		b.SetTextAttrs(v, "t")
		b.SetNumAttrs(v, 0.5)
		b.AddEdge(v, (v+1)%6)
	}
	g := b.MustBuild()
	muts := []func(*Request){
		func(r *Request) { r.K = -4 },
		func(r *Request) { r.ErrorBound = -0.02 },
		func(r *Request) { r.Confidence = -0.95 },
		func(r *Request) { r.SizeLo = -3 },
		func(r *Request) { r.SizeHi = -10 },
		func(r *Request) { r.MaxRounds = -2 },
		func(r *Request) { r.SizeLo = 12 },
	}
	for i, mut := range muts {
		req := validBase()
		mut(&req)
		out, err := Run(t.Context(), g, nil, nil, req)
		if out != nil || !errors.Is(err, cserr.ErrInvalidRequest) {
			t.Fatalf("case %d: out=%v err=%v", i, out, err)
		}
	}
}
