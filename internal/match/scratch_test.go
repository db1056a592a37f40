package match

import (
	"math/rand"
	"testing"
)

// randInstance builds a random flat-cost instance plus equivalent
// closures.
func randInstance(rng *rand.Rand, m, n int) (pairCost, del, ins []float64) {
	pairCost = make([]float64, m*n)
	for i := range pairCost {
		pairCost[i] = float64(rng.Intn(40))
	}
	del = make([]float64, m)
	for i := range del {
		del[i] = float64(5 + rng.Intn(30))
	}
	ins = make([]float64, n)
	for j := range ins {
		ins[j] = float64(5 + rng.Intn(30))
	}
	return
}

// TestScratchMatchesClosureAPI: the flat-row Scratch methods must
// produce exactly the results of the closure-based package functions,
// and a Scratch reused across many instances must not leak state.
func TestScratchMatchesClosureAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s Scratch
	for iter := 0; iter < 200; iter++ {
		m, n := rng.Intn(8), rng.Intn(8)
		pairCost, del, ins := randInstance(rng, m, n)
		pair := func(i, j int) float64 { return pairCost[i*n+j] }
		delF := func(i int) float64 { return del[i] }
		insF := func(j int) float64 { return ins[j] }

		for name, pairRes := range map[string][2]Result{
			"bipartite":   {s.Bipartite(m, n, pairCost, del, ins).Clone(), Bipartite(m, n, pair, delF, insF)},
			"noncrossing": {s.NonCrossing(m, n, pairCost, del, ins).Clone(), NonCrossing(m, n, pair, delF, insF)},
		} {
			got, want := pairRes[0], pairRes[1]
			if got.Cost != want.Cost {
				t.Fatalf("iter %d %s: scratch cost %g != closure %g", iter, name, got.Cost, want.Cost)
			}
			if len(got.Pairs) != len(want.Pairs) {
				t.Fatalf("iter %d %s: pairs %v != %v", iter, name, got.Pairs, want.Pairs)
			}
			for k := range got.Pairs {
				if got.Pairs[k] != want.Pairs[k] {
					t.Fatalf("iter %d %s: pairs %v != %v", iter, name, got.Pairs, want.Pairs)
				}
			}
		}
	}
}

// TestScratchResultAliasing documents the Scratch contract: results
// are invalidated by the next call, so Clone detaches them.
func TestScratchResultAliasing(t *testing.T) {
	var s Scratch
	pc := []float64{0, 100, 100, 0}
	first := s.Bipartite(2, 2, pc, []float64{50, 50}, []float64{50, 50}).Clone()
	// A different instance overwrites the scratch buffers.
	s.Bipartite(2, 2, []float64{100, 0, 0, 100}, []float64{50, 50}, []float64{50, 50})
	if len(first.Pairs) != 2 || first.Pairs[0] != [2]int{0, 0} || first.Pairs[1] != [2]int{1, 1} {
		t.Fatalf("cloned result mutated by later scratch use: %v", first.Pairs)
	}
}
