package sptree_test

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// shapeCohort generates n default-parameter PA runs from a fresh
// specification, so each call starts an empty shape table.
func shapeCohort(t *testing.T, n int) []*wfrun.Run {
	t.Helper()
	sp, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	runs := make([]*wfrun.Run, n)
	for i := range runs {
		if runs[i], err = gen.RandomRun(sp, gen.DefaultRunParams(), rng); err != nil {
			t.Fatal(err)
		}
	}
	return runs
}

// TestShapeRolloverKeepsDistances: a cap far below one cohort's shape
// count makes the table start new generations while a cohort matrix is
// being computed, so engines see runs prepared under different
// generations and must re-prepare them and reset their shape-keyed
// tables. Every distance must equal the matrix computed without a
// rollover.
func TestShapeRolloverKeepsDistances(t *testing.T) {
	for _, m := range []cost.Model{cost.Unit{}, cost.Length{}, cost.Power{Epsilon: 0.5}} {
		want, err := analysis.DistanceMatrix(shapeCohort(t, 12), nil, m)
		if err != nil {
			t.Fatal(err)
		}
		restore := sptree.SetShapeCap(40)
		runs := shapeCohort(t, 12)
		got, err := analysis.DistanceMatrix(runs, nil, m)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := wfrun.Prepare(runs[0], runs[0]); p.Gen == 0 {
			t.Fatal("the small cap never started a new generation")
		}
		for i := range want.D {
			for j := range want.D[i] {
				if got.D[i][j] != want.D[i][j] {
					t.Fatalf("%s: d(%d,%d) = %g after rollovers, %g without", m.Name(), i, j, got.D[i][j], want.D[i][j])
				}
			}
		}
	}
}

// TestShapesAreExact: equal shapes mean equal subtrees up to the order
// of P and F children (label signatures agree), and unequal shapes mean
// they differ, over every pair of same-class nodes of a small cohort.
func TestShapesAreExact(t *testing.T) {
	runs := shapeCohort(t, 6)
	type node struct {
		v *sptree.Node
		s int32
	}
	var nodes []node
	for i := 0; i+1 < len(runs); i += 2 {
		p1, p2 := wfrun.Prepare(runs[i], runs[i+1])
		for k, p := range []*sptree.Prepared{p1, p2} {
			runs[i+k].Tree.Walk(func(v *sptree.Node) bool {
				nodes = append(nodes, node{v, p.Shape[v.ID]})
				return true
			})
		}
	}
	sig := make(map[*sptree.Node]string, len(nodes))
	for _, n := range nodes {
		sig[n.v] = n.v.LabelSignature()
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a.v.Spec != b.v.Spec {
				continue
			}
			if (a.s == b.s) != (sig[a.v] == sig[b.v]) {
				t.Fatalf("shapes %d, %d but label signatures equal=%v:\n%s\n%s", a.s, b.s, sig[a.v] == sig[b.v], a.v, b.v)
			}
		}
	}
}
