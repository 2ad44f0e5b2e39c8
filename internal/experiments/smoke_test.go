package experiments

import "testing"

func TestTable1Smoke(t *testing.T) {
	rows := quickRun(t).table1
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 datasets", len(rows))
	}
	for _, r := range rows {
		if r.Nodes == 0 || r.Edges == 0 {
			t.Errorf("%s: empty stats", r.Name)
		}
	}
	// Heterogeneous analogs must report multiple node types.
	if rows[5].NTypes < 2 {
		t.Errorf("%s: NTypes = %d", rows[5].Name, rows[5].NTypes)
	}
}

// TestRunMethodsSmoke reads Figure 5's facebook line-up.
func TestRunMethodsSmoke(t *testing.T) {
	for _, r := range quickRun(t).fig5.Rows {
		if r.Dataset != "facebook" || r.Method != "SEA" {
			continue
		}
		if r.Failures == Quick().Queries {
			t.Error("SEA failed on every query")
		}
		if r.Delta <= 0 {
			t.Errorf("SEA δ = %v", r.Delta)
		}
		// SEA's relative error should be small on the quick config.
		if r.RelErr > 25 {
			t.Errorf("SEA rel err = %v%%, suspiciously high", r.RelErr)
		}
		return
	}
	t.Fatal("no SEA row")
}

func TestTable2Smoke(t *testing.T) {
	rows := quickRun(t).table2
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 methods", len(rows))
	}
	for _, r := range rows {
		if r.TotalRank < 4 {
			t.Errorf("%s: total rank %d < 4", r.Method, r.TotalRank)
		}
	}
}

func TestTable3Smoke(t *testing.T) {
	rows := quickRun(t).table3
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 datasets", len(rows))
	}
	for _, r := range rows {
		if r.F1["SEA"] <= 0 || r.F1["SEA"] > 1 {
			t.Errorf("%s: SEA F1 = %v", r.Dataset, r.F1["SEA"])
		}
	}
}

func TestTable4Smoke(t *testing.T) {
	rows := quickRun(t).table4
	if len(rows) != 8 { // 4 configs × 2 datasets
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// Prunings must reduce (or preserve) explored states per dataset.
	for ds := 0; ds < 2; ds++ {
		full := rows[ds*4+0].States
		none := rows[ds*4+3].States
		if full > none {
			t.Errorf("%s: P1+P2+P3 states %v > unpruned %v",
				rows[ds*4].Dataset, full, none)
		}
	}
}

func TestTable5Smoke(t *testing.T) {
	rows := quickRun(t).table5
	if len(rows) != 5*7 {
		t.Fatalf("rows = %d, want 35", len(rows))
	}
	// ACQ must fail on every query of the numerical-only analogs (the '-'
	// cells of the paper's Table V).
	for _, r := range rows {
		if r.Method == "ACQ-Core" && (r.Dataset == "dbpedia" || r.Dataset == "yago" || r.Dataset == "freebase") {
			if r.Fail == 0 {
				t.Errorf("%s/%s: expected failures on numerical-only dataset", r.Dataset, r.Method)
			}
		}
	}
}

func TestTable6Smoke(t *testing.T) {
	if len(quickRun(t).table6) == 0 {
		t.Fatal("no case-study rounds")
	}
}

func TestFig5dSmoke(t *testing.T) {
	if rows := quickRun(t).fig5d; len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
}

func TestFig6Smoke(t *testing.T) {
	if rows := quickRun(t).fig6; len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 ego networks", len(rows))
	}
}

func TestFig7Smoke(t *testing.T) {
	if rows := quickRun(t).fig7; len(rows) != 8 { // 4 bounds × 2 datasets
		t.Fatalf("rows = %d, want 8", len(rows))
	}
}

func TestFig8Smoke(t *testing.T) {
	if len(quickRun(t).fig8) == 0 {
		t.Fatal("no sweep points")
	}
}

func TestFig10Smoke(t *testing.T) {
	rows := quickRun(t).fig10
	if len(rows) != 12 { // 6 gammas × 2 datasets
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	// γ=1 optimizes Jaccard: its Jaccard distance should not exceed γ=0's.
	byDataset := map[string]map[float64]Fig10Row{}
	for _, r := range rows {
		if byDataset[r.Dataset] == nil {
			byDataset[r.Dataset] = map[float64]Fig10Row{}
		}
		byDataset[r.Dataset][r.Gamma] = r
	}
	for ds, m := range byDataset {
		if m[1.0].Jaccard > m[0.0].Jaccard+0.15 {
			t.Errorf("%s: γ=1 Jaccard %v much worse than γ=0 %v", ds, m[1.0].Jaccard, m[0.0].Jaccard)
		}
	}
}

func TestScalabilitySmoke(t *testing.T) {
	rows := quickRun(t).scale
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 scales", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Nodes <= rows[i-1].Nodes {
			t.Errorf("scale sweep not growing: %d after %d nodes", rows[i].Nodes, rows[i-1].Nodes)
		}
	}
	// SEA must beat the budgeted exact at every scale.
	for _, r := range rows {
		if r.SEAMS > 0 && r.Speedup < 1 {
			t.Errorf("scale %.1f: SEA slower than Exact (%.2fx)", r.Scale, r.Speedup)
		}
	}
}
