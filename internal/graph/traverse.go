package graph

// BFS visits nodes reachable from src in breadth-first order, calling visit
// for each with its hop distance. Traversal stops early if visit returns
// false.
func (g *Graph) BFS(src NodeID, visit func(v NodeID, dist int) bool) {
	seen := make([]bool, g.NumNodes())
	queue := []NodeID{src}
	seen[src] = true
	dist := 0
	for len(queue) > 0 {
		var next []NodeID
		for _, v := range queue {
			if !visit(v, dist) {
				return
			}
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		queue = next
		dist++
	}
}

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

// ConnectedComponents returns a label per node and the number of components.
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var c int32
	stack := make([]NodeID, 0, 64)
	for v := 0; v < n; v++ {
		if labels[v] >= 0 {
			continue
		}
		stack = append(stack[:0], NodeID(v))
		labels[v] = c
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(x) {
				if labels[u] < 0 {
					labels[u] = c
					stack = append(stack, u)
				}
			}
		}
		c++
	}
	return labels, int(c)
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
