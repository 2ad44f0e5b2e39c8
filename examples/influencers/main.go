// Influential community search (the §VI-A HIC extension): on a social
// network analog with a synthetic influence score per user, find the
// community around a seed user whose *least* influential member is as
// influential as possible, and compare the two structural models on the
// same neighborhood.
package main

import (
	"fmt"
	"log"
	"math/rand"

	sea "repro"
)

func main() {
	d, err := sea.GenerateDataset("github", 0.4)
	if err != nil {
		log.Fatal(err)
	}
	g := d.Graph
	fmt.Printf("developer network: %d users, %d follow edges\n", g.NumNodes(), g.NumEdges())

	// Influence: a noisy function of degree (well-connected users influence
	// more), standing in for follower counts or h-indices.
	rng := rand.New(rand.NewSource(11))
	influence := make([]float64, g.NumNodes())
	for v := range influence {
		influence[v] = float64(g.Degree(sea.NodeID(v))) * (0.5 + rng.Float64())
	}

	const k = 5
	seed := d.QueryNodes(1, k, 17)[0]
	fmt.Printf("seed user: %d (influence %.1f)\n\n", seed, influence[seed])

	res, err := sea.InfluentialSearch(g, seed, k, influence)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("influential %d-core community: %d members\n", k, len(res.Community))
	fmt.Printf("  minimum member influence: %.2f (maximized)\n", res.MinInfluence)
	fmt.Printf("  EVT-estimated max influence in the region: %.2f (observed max %.2f, GPD ξ=%.2f)\n\n",
		res.MaxEstimate.Max, res.MaxEstimate.SampleMax, res.MaxEstimate.Xi)

	// The §II model ranking on the same query: k-core ⪯ k-truss.
	core := sea.MaximalConnectedKCore(g, seed, k)
	truss := sea.MaximalConnectedKTruss(g, seed, k)
	fmt.Println("structure models around the same seed (more cohesive ⇒ smaller):")
	fmt.Printf("  %d-core:    %d members\n", k, len(core))
	fmt.Printf("  %d-truss:   %d members\n", k, len(truss))
}
