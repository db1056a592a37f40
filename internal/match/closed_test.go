package match

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
)

// modelInstance draws an m×n instance priced the way the differencing
// engine prices one: every cost is a sum of a few elementary path
// costs under model, over short lengths and a three-label alphabet,
// so equal costs (and equal gains) are common. Pair costs may be 0
// (equal subtrees); deletions and insertions only when zeros is set.
func modelInstance(rng *rand.Rand, model cost.Model, zeros bool, m, n int) (pairCost, del, ins []float64) {
	slotTerms := 1
	if zeros {
		slotTerms = 0
	}
	labels := []string{"a", "b", "c"}
	price := func(minTerms int) float64 {
		c := 0.0
		for t := minTerms + rng.Intn(3); t > 0; t-- {
			c += model.PathCost(1+rng.Intn(4), labels[rng.Intn(3)], labels[rng.Intn(3)])
		}
		return c
	}
	pairCost = make([]float64, m*n)
	for i := range pairCost {
		pairCost[i] = price(0)
	}
	del = make([]float64, m)
	for i := range del {
		del[i] = price(slotTerms)
	}
	ins = make([]float64, n)
	for j := range ins {
		ins[j] = price(slotTerms)
	}
	return
}

// TestBipartiteClosedFormsMatchPadded is the match-level differential
// for the one shape Bipartite answers without the Hungarian step: on
// random many-tie instances with one side empty (0×k and k×0, k up to
// 64) and on small general ones, under every cost model the engine
// uses, Bipartite must return the padded solve's Cost bit for bit and
// the same Pairs and match index, and must run no padded solve when a
// side is empty.
func TestBipartiteClosedFormsMatchPadded(t *testing.T) {
	models := []struct {
		m     cost.Model
		zeros bool
	}{
		{cost.Unit{}, false},
		{cost.Length{}, false},
		{cost.Unit{}, true},
		{cost.Power{Epsilon: 0.5}, false},
		{cost.Weighted{Base: cost.Length{}, W: map[string]float64{"a": 0.5, "b": 2}}, false},
	}
	rng := rand.New(rand.NewSource(36))
	var s, ref Scratch
	for _, tc := range models {
		for iter := 0; iter < 3000; iter++ {
			k := 1 + rng.Intn(64)
			var m, n int
			switch iter % 3 {
			case 0:
				m, n = 0, k
			case 1:
				m, n = k, 0
			default:
				m, n = 1+rng.Intn(4), 1+rng.Intn(4)
			}
			pairCost, del, ins := modelInstance(rng, tc.m, tc.zeros, m, n)
			solves := s.Solves()
			got := s.Bipartite(m, n, pairCost, del, ins).Clone()
			ref.reset(m)
			want := ref.padded(m, n, pairCost, del, ins)
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("%s %d×%d: cost %v, padded %v\npairs %v del %v ins %v", tc.m.Name(), m, n, got.Cost, want.Cost, pairCost, del, ins)
			}
			if len(got.Pairs) != len(want.Pairs) {
				t.Fatalf("%s %d×%d: pairs %v, padded %v", tc.m.Name(), m, n, got.Pairs, want.Pairs)
			}
			for p := range got.Pairs {
				if got.Pairs[p] != want.Pairs[p] {
					t.Fatalf("%s %d×%d: pairs %v, padded %v", tc.m.Name(), m, n, got.Pairs, want.Pairs)
				}
			}
			for i := 0; i < m; i++ {
				gj, gok := got.Matched(i)
				wj, wok := want.Matched(i)
				if gj != wj || gok != wok {
					t.Fatalf("%s %d×%d: Matched(%d) = (%d,%v), padded (%d,%v)", tc.m.Name(), m, n, i, gj, gok, wj, wok)
				}
			}
			if ran := s.Solves() - solves; (m == 0 || n == 0) && ran != 0 {
				t.Fatalf("%s %d×%d: %d padded solves for an empty side", tc.m.Name(), m, n, ran)
			}
		}
	}
}
