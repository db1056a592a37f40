package match

import (
	"math"
	"math/rand"
	"testing"
)

func mat(rows [][]float64) func(i, j int) float64 {
	return func(i, j int) float64 { return rows[i][j] }
}

func constf(v float64) func(int) float64 { return func(int) float64 { return v } }

func TestBipartiteSimple(t *testing.T) {
	// Classic 3x3 assignment.
	costs := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	res := Bipartite(3, 3, mat(costs), constf(100), constf(100))
	if res.Cost != 5 { // 1 + 2 + 2
		t.Fatalf("cost = %g, want 5", res.Cost)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("pairs = %v, want full matching", res.Pairs)
	}
}

func TestBipartitePrefersDeleteInsert(t *testing.T) {
	// Pairing costs 10; deleting and inserting costs 2+3=5.
	res := Bipartite(1, 1, func(i, j int) float64 { return 10 }, constf(2), constf(3))
	if res.Cost != 5 {
		t.Fatalf("cost = %g, want 5", res.Cost)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("expected no pairs, got %v", res.Pairs)
	}
}

func TestBipartiteUnbalanced(t *testing.T) {
	// 1 left, 3 right: left pairs with the cheap right, others inserted.
	pair := func(i, j int) float64 { return float64(j + 1) }
	res := Bipartite(1, 3, pair, constf(50), constf(4))
	// Options: pair with j=0 (1) + insert two (8) = 9.
	if res.Cost != 9 {
		t.Fatalf("cost = %g, want 9", res.Cost)
	}
	if len(res.Pairs) != 1 || res.Pairs[0] != [2]int{0, 0} {
		t.Fatalf("pairs = %v", res.Pairs)
	}
}

func TestBipartiteEmpty(t *testing.T) {
	res := Bipartite(0, 0, nil, nil, nil)
	if res.Cost != 0 || len(res.Pairs) != 0 {
		t.Fatalf("empty problem should be free, got %+v", res)
	}
}

// bruteBipartite enumerates all one-to-one partial matchings.
func bruteBipartite(m, n int, pair func(i, j int) float64, del func(int) float64, ins func(int) float64) float64 {
	best := math.Inf(1)
	assign := make([]int, m) // -1 = deleted, else right index
	usedR := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			total := 0.0
			for l, r := range assign {
				if r < 0 {
					total += del(l)
				} else {
					total += pair(l, r)
				}
			}
			for r := 0; r < n; r++ {
				if !usedR[r] {
					total += ins(r)
				}
			}
			if total < best {
				best = total
			}
			return
		}
		assign[i] = -1
		rec(i + 1)
		for r := 0; r < n; r++ {
			if !usedR[r] {
				usedR[r] = true
				assign[i] = r
				rec(i + 1)
				usedR[r] = false
			}
		}
		assign[i] = -1
	}
	rec(0)
	return best
}

func TestBipartiteAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m, n := rng.Intn(5), rng.Intn(5)
		pc := make([][]float64, m)
		for i := range pc {
			pc[i] = make([]float64, n)
			for j := range pc[i] {
				pc[i][j] = float64(rng.Intn(20))
			}
		}
		dels := make([]float64, m)
		for i := range dels {
			dels[i] = float64(rng.Intn(20))
		}
		inss := make([]float64, n)
		for j := range inss {
			inss[j] = float64(rng.Intn(20))
		}
		pair := func(i, j int) float64 { return pc[i][j] }
		del := func(i int) float64 { return dels[i] }
		ins := func(j int) float64 { return inss[j] }
		got := Bipartite(m, n, pair, del, ins)
		want := bruteBipartite(m, n, pair, del, ins)
		if math.Abs(got.Cost-want) > 1e-9 {
			t.Fatalf("trial %d (m=%d n=%d): hungarian %g, brute force %g", trial, m, n, got.Cost, want)
		}
		// The reported pairs must account for the reported cost.
		total := 0.0
		usedL := map[int]bool{}
		usedR := map[int]bool{}
		for _, p := range got.Pairs {
			if usedL[p[0]] || usedR[p[1]] {
				t.Fatalf("trial %d: pair reuse in %v", trial, got.Pairs)
			}
			usedL[p[0]], usedR[p[1]] = true, true
			total += pc[p[0]][p[1]]
		}
		for i := 0; i < m; i++ {
			if !usedL[i] {
				total += dels[i]
			}
		}
		for j := 0; j < n; j++ {
			if !usedR[j] {
				total += inss[j]
			}
		}
		if math.Abs(total-got.Cost) > 1e-9 {
			t.Fatalf("trial %d: pairs total %g != reported %g", trial, total, got.Cost)
		}
	}
}

// bruteNonCrossing enumerates monotone matchings.
func bruteNonCrossing(m, n int, pair func(i, j int) float64, del func(int) float64, ins func(int) float64) float64 {
	memo := make(map[[2]int]float64)
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		if i == m {
			total := 0.0
			for r := j; r < n; r++ {
				total += ins(r)
			}
			return total
		}
		if j == n {
			total := 0.0
			for l := i; l < m; l++ {
				total += del(l)
			}
			return total
		}
		k := [2]int{i, j}
		if v, ok := memo[k]; ok {
			return v
		}
		best := math.Min(rec(i+1, j)+del(i), rec(i, j+1)+ins(j))
		best = math.Min(best, rec(i+1, j+1)+pair(i, j))
		memo[k] = best
		return best
	}
	return rec(0, 0)
}

func TestNonCrossingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		m, n := rng.Intn(6), rng.Intn(6)
		pc := make([][]float64, m)
		for i := range pc {
			pc[i] = make([]float64, n)
			for j := range pc[i] {
				pc[i][j] = float64(rng.Intn(20))
			}
		}
		dels := make([]float64, m)
		for i := range dels {
			dels[i] = float64(rng.Intn(20))
		}
		inss := make([]float64, n)
		for j := range inss {
			inss[j] = float64(rng.Intn(20))
		}
		pair := func(i, j int) float64 { return pc[i][j] }
		del := func(i int) float64 { return dels[i] }
		ins := func(j int) float64 { return inss[j] }
		got := NonCrossing(m, n, pair, del, ins)
		want := bruteNonCrossing(m, n, pair, del, ins)
		if math.Abs(got.Cost-want) > 1e-9 {
			t.Fatalf("trial %d (m=%d n=%d): dp %g, brute force %g", trial, m, n, got.Cost, want)
		}
		// Pairs must be strictly increasing in both coordinates.
		for k := 1; k < len(got.Pairs); k++ {
			if got.Pairs[k][0] <= got.Pairs[k-1][0] || got.Pairs[k][1] <= got.Pairs[k-1][1] {
				t.Fatalf("trial %d: crossing pairs %v", trial, got.Pairs)
			}
		}
	}
}

func TestNonCrossingForbidsCrossing(t *testing.T) {
	// Pair costs strongly favor the crossing matching (0,1),(1,0);
	// non-crossing must refuse it.
	pc := [][]float64{
		{100, 0},
		{0, 100},
	}
	res := NonCrossing(2, 2, mat(pc), constf(10), constf(10))
	// Best monotone options: match (0,0)&(1,1) = 200, match (0,1) +
	// del 1 + ins 0 = 0+10+10 = 20, etc.
	if res.Cost != 20 {
		t.Fatalf("cost = %g, want 20", res.Cost)
	}
	bip := Bipartite(2, 2, mat(pc), constf(10), constf(10))
	if bip.Cost != 0 {
		t.Fatalf("unrestricted matching should take the crossing for 0, got %g", bip.Cost)
	}
}
