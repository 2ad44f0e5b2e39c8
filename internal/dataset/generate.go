// Package dataset generates the synthetic attributed graphs that stand in
// for the paper's ten real-world datasets (§VII-A, Table I), with planted
// ground-truth communities for the F1 experiments, heterogeneous analogs for
// §VI-A, ego networks for Figure 6, and simple file loaders so users can run
// the library on their own data.
//
// The generator plants a partition of power-law-sized communities, wires
// dense intra-community and sparse inter-community edges, and correlates
// both textual attributes (per-community keyword pools plus noise) and
// numerical attributes (per-community Gaussian centroids) with the planted
// structure. The wiring comments in Generate say which behaviour the paper's
// experiments measure each planted member class is there to preserve.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Spec parameterizes a homogeneous generated dataset.
type Spec struct {
	Name  string
	Nodes int
	// Community size bounds; sizes follow a truncated power law.
	MinCommunity, MaxCommunity int
	// IntraDegree is the target number of intra-community neighbors per core
	// member.
	IntraDegree int
	// InterDegree is the expected number of cross-community edges per node.
	// Inter-community edges attach to boundary members only, so planted
	// community cores stay separate connected k-cores.
	InterDegree float64
	// BoundaryFrac is the fraction of each community wired sparsely as its
	// boundary (default 0.3); BoundaryDegree is a boundary member's number
	// of intra-community edges (default 3).
	BoundaryFrac   float64
	BoundaryDegree int
	// Textual attributes: tokens per node, per-community pool size, global
	// vocabulary size, probability a token is noise rather than pool-drawn.
	TokensPerNode, PoolSize, Vocab int
	NoiseProb                      float64
	// NumericalOnly drops textual attributes (knowledge-graph analogs).
	NumericalOnly bool
	// NumDim numerical attribute dimensions; per-community centroids with
	// NumSigma Gaussian spread.
	NumDim   int
	NumSigma float64
	Seed     int64
}

// Generated bundles a generated graph with its planted ground truth.
type Generated struct {
	Spec        Spec
	Graph       *graph.Graph
	Communities [][]graph.NodeID // planted communities, ground truth for F1
	CommunityOf []int32          // node → community index
	IsCore      []bool           // node → densely-wired core member?
}

// Generate builds the dataset described by s.
func Generate(s Spec) (*Generated, error) {
	if s.Nodes < 2 {
		return nil, fmt.Errorf("dataset: need at least 2 nodes, got %d", s.Nodes)
	}
	if s.MinCommunity < 3 || s.MaxCommunity < s.MinCommunity {
		return nil, fmt.Errorf("dataset: bad community bounds [%d,%d]", s.MinCommunity, s.MaxCommunity)
	}
	rng := rand.New(rand.NewSource(s.Seed))

	// Partition nodes into power-law-sized communities.
	var sizes []int
	remaining := s.Nodes
	for remaining > 0 {
		sz := powerLawSize(rng, s.MinCommunity, s.MaxCommunity, 2.0)
		if sz > remaining {
			sz = remaining
		}
		if remaining-sz < s.MinCommunity && remaining-sz > 0 {
			sz = remaining // absorb the tail
		}
		sizes = append(sizes, sz)
		remaining -= sz
	}
	communityOf := make([]int32, s.Nodes)
	communities := make([][]graph.NodeID, len(sizes))
	id := 0
	for c, sz := range sizes {
		for i := 0; i < sz; i++ {
			communityOf[id] = int32(c)
			communities[c] = append(communities[c], graph.NodeID(id))
			id++
		}
	}

	boundaryFrac := s.BoundaryFrac
	if boundaryFrac == 0 {
		boundaryFrac = 0.3
	}
	boundaryDeg := s.BoundaryDegree
	if boundaryDeg == 0 {
		boundaryDeg = 3
	}

	b := graph.NewBuilder(s.Nodes, s.NumDim)
	isCore := make([]bool, s.Nodes)
	isBlob := make([]bool, s.Nodes)
	var boundary []graph.NodeID
	// Intra-community wiring. Each community splits into three classes:
	//   - core (~60%): densely wired, community attributes — the ground
	//     truth the F1 experiments score against;
	//   - blob (~half the remainder): densely wired INTO the core so it
	//     survives k-core peeling, but carrying random attributes — the
	//     structurally-cohesive-yet-dissimilar periphery that separates
	//     attribute-distance methods from equality-matching ones;
	//   - bridge (rest): sparse members carrying the inter-community edges,
	//     peeled structurally at any meaningful k, which keeps the maximal
	//     connected k-core community-local.
	for _, members := range communities {
		n := len(members)
		periN := int(boundaryFrac * float64(n))
		coreN := n - periN
		if coreN < 3 {
			coreN = n
			periN = 0
		}
		blobN := periN * 2 / 3
		core := members[:coreN]
		blob := members[coreN : coreN+blobN]
		bridge := members[coreN+blobN:]
		for i := 0; i < coreN; i++ {
			isCore[core[i]] = true
			b.AddEdge(core[i], core[(i+1)%coreN])
		}
		extra := s.IntraDegree - 2
		for i := 0; i < coreN; i++ {
			for e := 0; e < extra; e++ {
				j := rng.Intn(coreN)
				if core[j] != core[i] {
					b.AddEdge(core[i], core[j])
				}
			}
		}
		denseTo := append(append([]graph.NodeID(nil), core...), blob...)
		for _, v := range blob {
			isBlob[v] = true
			for e := 0; e < s.IntraDegree; e++ {
				u := denseTo[rng.Intn(len(denseTo))]
				if u != v {
					b.AddEdge(v, u)
				}
			}
		}
		for _, v := range bridge {
			boundary = append(boundary, v)
			for e := 0; e < boundaryDeg; e++ {
				u := members[rng.Intn(n)]
				if u != v {
					b.AddEdge(v, u)
				}
			}
		}
	}
	// Inter-community edges between boundary members only, so community
	// cores remain separate connected k-cores.
	if s.InterDegree > 0 && len(communities) > 1 && len(boundary) > 1 {
		for _, v := range boundary {
			cnt := poisson(rng, s.InterDegree/2) // each edge counts for two endpoints
			for e := 0; e < cnt; e++ {
				u := boundary[rng.Intn(len(boundary))]
				if communityOf[u] != communityOf[v] {
					b.AddEdge(v, u)
				}
			}
		}
	}

	// Attributes.
	assignAttrs(b, rng, s, communities, isBlob)

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Generated{
		Spec: s, Graph: g,
		Communities: communities, CommunityOf: communityOf, IsCore: isCore,
	}, nil
}

// assignAttrs writes textual and numerical attributes correlated with the
// planted communities. Blob members draw both kinds of attributes at random
// instead: they are the structurally cohesive but dissimilar periphery.
func assignAttrs(b *graph.Builder, rng *rand.Rand, s Spec, communities [][]graph.NodeID, isBlob []bool) {
	vocab := s.Vocab
	if vocab < s.PoolSize*2 {
		vocab = s.PoolSize * 2
	}
	// Pre-intern the vocabulary so token IDs are stable.
	tokens := make([]int32, vocab)
	for i := range tokens {
		tokens[i] = b.Dict().Intern(fmt.Sprintf("tok%04d", i))
	}
	centroids := make([][]float64, len(communities))
	pools := make([][]int32, len(communities))
	for c := range communities {
		pool := make([]int32, s.PoolSize)
		for i := range pool {
			pool[i] = tokens[rng.Intn(vocab)]
		}
		pools[c] = pool
		cen := make([]float64, s.NumDim)
		for d := range cen {
			cen[d] = rng.Float64()
		}
		centroids[c] = cen
	}
	for c, members := range communities {
		for _, v := range members {
			// Blob members replay the paper's Figure-1 story (the low-rated
			// action movies v11/v12): their TEXTUAL attributes match the
			// community, so equality-matching methods keep them, but their
			// NUMERICAL attributes are far off, so the composite distance
			// exposes them.
			blob := isBlob != nil && isBlob[v]
			if !s.NumericalOnly && s.TokensPerNode > 0 {
				attrs := make([]int32, 0, s.TokensPerNode)
				for t := 0; t < s.TokensPerNode; t++ {
					if rng.Float64() < s.NoiseProb {
						attrs = append(attrs, tokens[rng.Intn(vocab)])
					} else {
						attrs = append(attrs, pools[c][rng.Intn(len(pools[c]))])
					}
				}
				b.SetTextTokens(v, attrs)
			}
			if s.NumDim > 0 {
				vals := make([]float64, s.NumDim)
				for d := range vals {
					x := centroids[c][d] + rng.NormFloat64()*s.NumSigma
					if blob {
						// Push to the far side of the unit range.
						x = clamp01(1 - centroids[c][d] + rng.NormFloat64()*0.1)
					}
					vals[d] = clamp01(x)
				}
				b.SetNumAttrs(v, vals...)
			}
		}
	}
}

// powerLawSize draws a size in [lo,hi] with density ∝ x^(-alpha).
func powerLawSize(rng *rand.Rand, lo, hi int, alpha float64) int {
	if lo >= hi {
		return lo
	}
	// Inverse-CDF sampling for a truncated continuous power law.
	a, b := float64(lo), float64(hi)
	u := rng.Float64()
	oneMinus := 1 - alpha
	x := math.Pow(u*(math.Pow(b, oneMinus)-math.Pow(a, oneMinus))+math.Pow(a, oneMinus), 1/oneMinus)
	sz := int(x)
	if sz < lo {
		sz = lo
	}
	if sz > hi {
		sz = hi
	}
	return sz
}

// poisson draws from Poisson(lambda) by Knuth's method (small lambda only).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// QueryNodes picks n deterministic query nodes among core members of
// communities large enough to host a (k+1)-node community, mirroring how the
// paper selects random query nodes that actually belong to k-cores.
func (d *Generated) QueryNodes(n, k int, seed int64) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	var eligible []graph.NodeID
	for _, members := range d.Communities {
		if len(members) < k+1 {
			continue
		}
		for _, v := range members {
			if d.IsCore[v] && d.Graph.Degree(v) >= k {
				eligible = append(eligible, v)
			}
		}
	}
	if len(eligible) == 0 {
		eligible = append(eligible, 0)
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = eligible[rng.Intn(len(eligible))]
	}
	return out
}

// GroundTruth returns the ground-truth community of v for F1 scoring: the
// densely wired core members of v's planted community. Boundary members are
// excluded — they model the loose periphery around a real circle, which the
// human-annotated ground truths of the paper's datasets also leave out.
func (d *Generated) GroundTruth(v graph.NodeID) []graph.NodeID {
	members := d.Communities[d.CommunityOf[v]]
	core := make([]graph.NodeID, 0, len(members))
	for _, u := range members {
		if d.IsCore[u] {
			core = append(core, u)
		}
	}
	if len(core) == 0 {
		return members
	}
	return core
}
