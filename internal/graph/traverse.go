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
