package graph

// Component returns the connected component containing src, restricted to
// nodes for which keep returns true (keep == nil keeps everything). src is
// included only if keep allows it.
func (g *Graph) Component(src NodeID, keep func(NodeID) bool) []NodeID {
	if keep != nil && !keep(src) {
		return nil
	}
	seen := make([]bool, g.NumNodes())
	seen[src] = true
	out := []NodeID{src}
	for i := 0; i < len(out); i++ {
		for _, u := range g.Neighbors(out[i]) {
			if seen[u] || (keep != nil && !keep(u)) {
				continue
			}
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// InducedSubgraphOf returns the subgraph of any Store backing induced by
// nodes, with attributes copied and the dictionary shared, plus the mapping
// from new IDs to original IDs.
func InducedSubgraphOf(g Store, nodes []NodeID) (*Graph, []NodeID) {
	remap := make(map[NodeID]NodeID, len(nodes))
	orig := make([]NodeID, len(nodes))
	for i, v := range nodes {
		remap[v] = NodeID(i)
		orig[i] = v
	}
	dim := g.NumDim()
	b := NewBuilder(len(nodes), dim)
	b.dict = g.Dict()
	var nbr []NodeID
	for i, v := range nodes {
		b.SetTextTokens(NodeID(i), g.TextAttrs(v))
		if dim > 0 {
			b.SetNumAttrs(NodeID(i), g.NumAttrs(v)...)
		}
		for _, u := range g.NeighborsInto(&nbr, v) {
			if j, ok := remap[u]; ok && j > NodeID(i) {
				b.AddEdge(NodeID(i), j)
			}
		}
	}
	sub := b.MustBuild()
	return sub, orig
}
