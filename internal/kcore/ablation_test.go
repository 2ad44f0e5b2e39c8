package kcore

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/ws"
)

// clone is the control of the clone-vs-rollback ablation: a deep copy of s
// sharing only the immutable graph, what a backtracking search without
// Restore would make per state.
func (s *Sub) clone() *Sub {
	return &Sub{
		g:        s.g,
		k:        s.k,
		q:        s.q,
		universe: s.universe,
		alive:    append([]bool(nil), s.alive...),
		deg:      append([]int32(nil), s.deg...),
		mark:     make([]bool, len(s.mark)),
		size:     s.size,
		sc:       new(ws.KCoreScratch),
	}
}

// BenchmarkAblationCloneVsRollback compares rollback-based backtracking
// against cloning the k-core maintenance structure per state, on the
// 2 000-node graph the repository's root benchmarks run on.
func BenchmarkAblationCloneVsRollback(b *testing.B) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "bench", Nodes: 2000, MinCommunity: 16, MaxCommunity: 40,
		IntraDegree: 10, InterDegree: 0.8,
		TokensPerNode: 4, PoolSize: 6, Vocab: 160, NoiseProb: 0.15,
		NumDim: 2, NumSigma: 0.06, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, q := d.Graph, d.QueryNodes(1, 6, 3)[0]
	members := MaximalConnectedKCore(g, q, 6)
	if members == nil {
		b.Skip("query hosts no 6-core")
	}
	run := func(b *testing.B, peel func(sub *Sub, v graph.NodeID)) {
		sub, err := NewSub(g, q, 6, members)
		if err != nil {
			b.Fatal(err)
		}
		var buf []graph.NodeID
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = sub.Members(buf[:0])
			for _, v := range buf {
				if v != q {
					peel(sub, v)
				}
			}
		}
	}
	b.Run("rollback", func(b *testing.B) {
		run(b, func(sub *Sub, v graph.NodeID) {
			sub.RemoveCascade(v)
			sub.Restore()
		})
	})
	b.Run("clone", func(b *testing.B) {
		run(b, func(sub *Sub, v graph.NodeID) { sub.clone().RemoveCascade(v) })
	})
}
