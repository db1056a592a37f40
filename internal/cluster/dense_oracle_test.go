package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The dense kernels select instead of sorting and price PAM exchanges
// from cached nearest/second-nearest distances. The oracles below are
// the straightforward forms they replaced: a stable sort of every row
// for Nearest and Outliers, assignAll per candidate exchange for the
// SWAP phase, and a symmetry check of every (i, j) for validateMatrix.
// The differential test feeds both forms the same Matrix and requires
// them to agree exactly.

func oracleValidate(d [][]float64) error {
	n := len(d)
	if n == 0 {
		return fmt.Errorf("cluster: empty distance matrix")
	}
	for i, row := range d {
		if len(row) != n {
			return fmt.Errorf("cluster: row %d has %d entries in a %d-item matrix", i, len(row), n)
		}
		if row[i] != 0 {
			return fmt.Errorf("cluster: nonzero self-distance %g at %d", row[i], i)
		}
		for j, v := range row {
			if math.IsNaN(v) || v < 0 {
				return fmt.Errorf("cluster: invalid distance %g at (%d,%d)", v, i, j)
			}
			if math.Abs(v-d[j][i]) > 1e-9 {
				return fmt.Errorf("cluster: asymmetric matrix: d[%d][%d]=%g, d[%d][%d]=%g", i, j, v, j, i, d[j][i])
			}
		}
	}
	return nil
}

func oracleNearest(d *Matrix, i, k int) ([]Neighbor, error) {
	n := d.Len()
	if i < 0 || i >= n {
		return nil, fmt.Errorf("cluster: item %d outside matrix of %d items", i, n)
	}
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 {
		return nil, nil
	}
	out := make([]Neighbor, 0, n-1)
	for j := 0; j < n; j++ {
		if j != i {
			out = append(out, Neighbor{Index: j, Distance: d.At(i, j)})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].Index < out[b].Index
	})
	return out[:k], nil
}

func oracleOutliers(d *Matrix, k int) ([]OutlierScore, error) {
	n := d.Len()
	if n == 1 {
		return []OutlierScore{{Index: 0}}, nil
	}
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	out := make([]OutlierScore, n)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, d.At(i, j))
				sum += d.At(i, j)
			}
		}
		sort.Float64s(row)
		knnSum := 0.0
		for _, v := range row[:k] {
			knnSum += v
		}
		out[i] = OutlierScore{
			Index:   i,
			Score:   knnSum / float64(k),
			MeanAll: sum / float64(n-1),
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Index < out[b].Index
	})
	return out, nil
}

func oracleKMedoids(d *Matrix, k int, seed int64) (*Clustering, error) {
	n := d.Len()
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k=%d outside [1, %d]", k, n)
	}
	rng := rand.New(rand.NewSource(seed))

	medoids := make([]int, 0, k)
	isMedoid := make([]bool, n)
	best, bestSum := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += d.At(i, j)
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	medoids = append(medoids, best)
	isMedoid[best] = true
	nearest := make([]float64, n)
	for i := 0; i < n; i++ {
		nearest[i] = d.At(i, best)
	}
	for len(medoids) < k {
		total := 0.0
		for i := 0; i < n; i++ {
			if !isMedoid[i] {
				total += nearest[i] * nearest[i]
			}
		}
		pick := -1
		if total > 0 {
			r := rng.Float64() * total
			acc := 0.0
			for i := 0; i < n; i++ {
				if isMedoid[i] {
					continue
				}
				acc += nearest[i] * nearest[i]
				if acc >= r {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			for i := 0; i < n; i++ {
				if !isMedoid[i] {
					pick = i
					break
				}
			}
		}
		medoids = append(medoids, pick)
		isMedoid[pick] = true
		for i := 0; i < n; i++ {
			if d.At(i, pick) < nearest[i] {
				nearest[i] = d.At(i, pick)
			}
		}
	}

	assign := make([]int, n)
	cost := assignAll(d, medoids, assign)
	iters := 0
	cand := make([]int, n)
	for {
		iters++
		bestDelta := -1e-12
		bestM, bestH := -1, -1
		for mi, m := range medoids {
			for h := 0; h < n; h++ {
				if isMedoid[h] {
					continue
				}
				medoids[mi] = h
				c := assignAll(d, medoids, cand)
				medoids[mi] = m
				if delta := c - cost; delta < bestDelta {
					bestDelta, bestM, bestH = delta, mi, h
				}
			}
		}
		if bestM < 0 {
			break
		}
		isMedoid[medoids[bestM]] = false
		medoids[bestM] = bestH
		isMedoid[bestH] = true
		cost = assignAll(d, medoids, assign)
	}

	medoids, assign = canonicalClusters(medoids, assign)
	return &Clustering{
		K:          k,
		Medoids:    medoids,
		Assign:     assign,
		Cost:       cost,
		Silhouette: silhouette(d, assign, k),
		Iterations: iters,
	}, nil
}

// randomMatrix draws a symmetric n×n distance matrix of one of three
// kinds: small integers (many ties), reals, or square roots of
// integers (irrational sums whose order matters). One in eight
// matrices has all-zero off-diagonals, the shape of a cohort of
// duplicate runs.
func randomMatrix(rng *rand.Rand, n int) ([][]float64, string) {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	kind := []string{"ints", "reals", "sqrts"}[rng.Intn(3)]
	if rng.Intn(8) == 0 {
		kind = "zeros"
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var v float64
			switch kind {
			case "ints":
				v = float64(rng.Intn(4))
			case "reals":
				v = rng.Float64() * 10
			case "sqrts":
				v = math.Sqrt(float64(rng.Intn(50)))
			}
			d[i][j], d[j][i] = v, v
		}
	}
	return d, kind
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || !sameFloat(a[i].Distance, b[i].Distance) {
			return false
		}
	}
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestDenseKernelsMatchOracles: over 1,200 random symmetric matrices
// the selection-based Nearest and Outliers and the cached-distance
// SWAP give exactly the answers of the sort-based and
// assignAll-per-candidate forms: the same indices, the same
// iteration count, and every float bit for bit.
func TestDenseKernelsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 1200; trial++ {
		n := 1 + rng.Intn(60)
		rows, kind := randomMatrix(rng, n)
		d, err := NewMatrix(rows)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(5)
		seed := rng.Int63n(1000)
		where := fmt.Sprintf("trial %d (%s, n=%d, k=%d, seed=%d)", trial, kind, n, k, seed)

		for i := 0; i < n; i++ {
			for _, kk := range []int{k, n - 1} {
				got, gerr := Nearest(d, i, kk)
				want, werr := oracleNearest(d, i, kk)
				if !sameErr(gerr, werr) || !sameNeighbors(got, want) {
					t.Fatalf("%s: Nearest(%d, %d) = %v, %v; oracle %v, %v", where, i, kk, got, gerr, want, werr)
				}
			}
		}

		for _, kk := range []int{k, n - 1} {
			got, gerr := Outliers(d, kk)
			want, werr := oracleOutliers(d, kk)
			if !sameErr(gerr, werr) || len(got) != len(want) {
				t.Fatalf("%s: Outliers(%d) = %v, %v; oracle %v, %v", where, kk, got, gerr, want, werr)
			}
			for r := range got {
				g, w := got[r], want[r]
				if g.Index != w.Index || !sameFloat(g.Score, w.Score) || !sameFloat(g.MeanAll, w.MeanAll) {
					t.Fatalf("%s: Outliers(%d)[%d] = %+v, oracle %+v", where, kk, r, g, w)
				}
			}
		}

		got, gerr := KMedoids(d, k, seed)
		want, werr := oracleKMedoids(d, k, seed)
		if !sameErr(gerr, werr) {
			t.Fatalf("%s: KMedoids error %v, oracle %v", where, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if !reflect.DeepEqual(got.Medoids, want.Medoids) || !reflect.DeepEqual(got.Assign, want.Assign) ||
			got.K != want.K || got.Iterations != want.Iterations ||
			!sameFloat(got.Cost, want.Cost) || !sameFloat(got.Silhouette, want.Silhouette) {
			t.Fatalf("%s: KMedoids = %+v, oracle %+v", where, got, want)
		}
	}
}
