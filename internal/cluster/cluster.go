// Package cluster answers the paper's cohort-level questions over a
// computed edit-distance matrix: which executions of a workflow behave
// alike (k-medoids partitioning), which are anomalous (distance-based
// outlier scoring), and which stored runs most resemble a given one
// (k-nearest-neighbor queries). The paper motivates provenance
// differencing precisely with such questions — "identify parameter
// settings and approaches which lead to good biological results"
// (Section I) — and its edit distance is a metric, so medoids are
// genuinely the most representative executions of their cluster.
//
// All functions consume a symmetric pairwise distance matrix (the
// analysis package computes and incrementally maintains one per
// cohort); none of them differences runs themselves, so they run in
// time polynomial in the cohort size regardless of run sizes.
package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Clustering is the result of a k-medoids (PAM) partitioning.
type Clustering struct {
	// K is the number of clusters.
	K int
	// Medoids holds the item index of each cluster's medoid, sorted
	// ascending (cluster c is "the cluster around Medoids[c]").
	Medoids []int
	// Assign maps each item index to its cluster number in [0, K).
	Assign []int
	// Cost is the total distance of every item to its medoid — the
	// PAM objective the SWAP phase minimizes.
	Cost float64
	// Silhouette is the mean silhouette coefficient over all items
	// (0 when K == 1 or every cluster is a singleton): a [-1, 1]
	// cohesion/separation score useful for choosing K. An item with no
	// other non-empty cluster to compare against scores 0, as a
	// singleton does; duplicate runs can leave every item in one
	// cluster, since ties assign toward the earlier medoid.
	Silhouette float64
	// Iterations counts SWAP rounds until convergence.
	Iterations int
}

// Members returns the item indices of cluster c, ascending.
func (c *Clustering) Members(cl int) []int {
	var out []int
	for i, a := range c.Assign {
		if a == cl {
			out = append(out, i)
		}
	}
	return out
}

// validateMatrix rejects matrices the algorithms cannot run on:
// non-square, asymmetric beyond float tolerance, negative or NaN
// entries, or nonzero diagonals. Every entry is checked for NaN and
// sign, but each pair's symmetry only once, from the upper triangle:
// the lower-triangle check row i would make against an earlier row j
// is the same comparison row j already passed. A short later row is
// left to its own length check.
func validateMatrix(d [][]float64) error {
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
		for j, v := range row[:i] {
			if math.IsNaN(v) || v < 0 {
				return fmt.Errorf("cluster: invalid distance %g at (%d,%d)", v, i, j)
			}
		}
		for j := i + 1; j < n; j++ {
			v, col := row[j], d[j]
			if math.IsNaN(v) || v < 0 {
				return fmt.Errorf("cluster: invalid distance %g at (%d,%d)", v, i, j)
			}
			if i < len(col) && math.Abs(v-col[i]) > 1e-9 {
				return fmt.Errorf("cluster: asymmetric matrix: d[%d][%d]=%g, d[%d][%d]=%g", i, j, v, j, i, col[i])
			}
		}
	}
	return nil
}

// KMedoids partitions the items of a distance matrix into k clusters
// by PAM: seeded k-medoids++ initialization (the first medoid is the
// deterministic global medoid; each further medoid is drawn with
// probability proportional to squared distance from the chosen set),
// then repeated best-improvement SWAP until no single medoid/non-medoid
// exchange lowers the objective. Results are deterministic for a fixed
// seed; ties break toward lower item indices.
func KMedoids(d [][]float64, k int, seed int64) (*Clustering, error) {
	return KMedoidsContext(context.Background(), d, k, seed)
}

// KMedoidsContext is KMedoids with cancellation: a SWAP round prices
// all k·(n−k) exchanges from each item's cached nearest and
// second-nearest medoid distances in O(k·n²), and rounds can stack up
// on large cohorts, so the context is polled before every item row of
// a round and an abandoned request (client gone, server shutting
// down) stops mid-SWAP instead of running the exchange search to
// completion. Returns ctx.Err() when cancelled.
func KMedoidsContext(ctx context.Context, d [][]float64, k int, seed int64) (*Clustering, error) {
	if err := validateMatrix(d); err != nil {
		return nil, err
	}
	n := len(d)
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k=%d outside [1, %d]", k, n)
	}
	rng := rand.New(rand.NewSource(seed))

	// Initialization. The first medoid is the item minimizing total
	// distance — the cohort medoid — independent of the seed.
	medoids := make([]int, 0, k)
	isMedoid := make([]bool, n)
	best, bestSum := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += d[i][j]
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	medoids = append(medoids, best)
	isMedoid[best] = true
	nearest := make([]float64, n) // distance to the closest chosen medoid
	for i := 0; i < n; i++ {
		nearest[i] = d[i][best]
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
			// All remaining items coincide with chosen medoids
			// (total == 0, e.g. duplicate runs): take the lowest
			// unchosen index.
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
			if d[i][pick] < nearest[i] {
				nearest[i] = d[i][pick]
			}
		}
	}

	assign := make([]int, n)
	cost := assignAll(d, medoids, assign)

	// SWAP: best-improvement exchanges until a local optimum. A round
	// prices every exchange of medoid slot mi for non-medoid h at once.
	// With d1[i] and d2[i] the distances from item i to its nearest
	// and second-nearest medoid (d2 == d1 on a tie) and near[i] the
	// nearest one's slot, the exchange leaves i at distance
	// min(d[i][h], d2[i] if near[i] == mi else d1[i]). acc[mi·n+h]
	// sums that over i in item order: the same float sum, term by
	// term, that assignAll takes over the exchanged medoid set, so the
	// exchange chosen and the cost reached are those of pricing each
	// candidate with assignAll.
	iters := 0
	d1 := make([]float64, n)
	d2 := make([]float64, n)
	near := make([]int, n)
	acc := make([]float64, k*n)
	for {
		iters++
		for i, row := range d {
			best, second, slot := math.Inf(1), math.Inf(1), 0
			for c, m := range medoids {
				if v := row[m]; v < best {
					best, second, slot = v, best, c
				} else if v < second {
					second = v
				}
			}
			d1[i], d2[i], near[i] = best, second, slot
		}
		clear(acc)
		for i, row := range d {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for mi := range medoids {
				keep := d1[i]
				if near[i] == mi {
					keep = d2[i]
				}
				sums := acc[mi*n : mi*n+n]
				for h, v := range row {
					sums[h] += min(v, keep)
				}
			}
		}
		bestDelta := -1e-12 // require a strict improvement
		bestM, bestH := -1, -1
		for mi := range medoids {
			for h, c := range acc[mi*n : mi*n+n] {
				if isMedoid[h] {
					continue
				}
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

// canonicalClusters sorts the medoids ascending and renumbers the
// assignment to match, so equal partitions always render identically.
// The inputs are rewritten in place and returned.
func canonicalClusters(medoids, assign []int) ([]int, []int) {
	k := len(medoids)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return medoids[order[a]] < medoids[order[b]] })
	sortedMedoids := make([]int, k)
	renumber := make([]int, k)
	for newC, oldC := range order {
		sortedMedoids[newC] = medoids[oldC]
		renumber[oldC] = newC
	}
	for i := range assign {
		assign[i] = renumber[assign[i]]
	}
	copy(medoids, sortedMedoids)
	return medoids, assign
}

// assignAll assigns every item to its closest medoid (ties toward the
// earlier medoid in the list) and returns the total assignment cost.
func assignAll(d [][]float64, medoids []int, assign []int) float64 {
	total := 0.0
	for i := range assign {
		bestC, bestD := 0, math.Inf(1)
		for c, m := range medoids {
			if d[i][m] < bestD {
				bestC, bestD = c, d[i][m]
			}
		}
		assign[i] = bestC
		total += bestD
	}
	return total
}

// silhouette computes the mean silhouette coefficient of a partition.
func silhouette(d [][]float64, assign []int, k int) float64 {
	if k < 2 {
		return 0
	}
	n := len(assign)
	sizes := make([]int, k)
	for _, a := range assign {
		sizes[a]++
	}
	sum, counted := 0.0, 0
	meanTo := make([]float64, k)
	for i := 0; i < n; i++ {
		if sizes[assign[i]] < 2 {
			continue // silhouette of a singleton is defined as 0
		}
		for c := range meanTo {
			meanTo[c] = 0
		}
		for j := 0; j < n; j++ {
			if j != i {
				meanTo[assign[j]] += d[i][j]
			}
		}
		a := meanTo[assign[i]] / float64(sizes[assign[i]]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == assign[i] || sizes[c] == 0 {
				continue
			}
			if v := meanTo[c] / float64(sizes[c]); v < b {
				b = v
			}
		}
		if math.IsInf(b, 1) {
			continue // no other non-empty cluster: 0, as a singleton
		}
		if den := math.Max(a, b); den > 0 {
			sum += (b - a) / den
		}
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// OutlierScore ranks one item by how far it sits from its local
// neighborhood.
type OutlierScore struct {
	// Index is the item index in the matrix.
	Index int
	// Score is the mean distance to the item's k nearest neighbors —
	// the classic distance-based outlier measure (larger = more
	// anomalous). Unlike total-distance ranking it is robust to a
	// cohort made of several tight clusters of different sizes.
	Score float64
	// MeanAll is the mean distance to every other item, reported for
	// context.
	MeanAll float64
}

// Outliers scores every item by its mean distance to its k nearest
// neighbors and returns the scores sorted most-anomalous first (ties
// toward lower indices). k is clamped to [1, n-1]; a single-item
// matrix yields one zero score. Each row is scanned once into a k-slot
// buffer of its smallest distances, summed in ascending order as a
// sorted row's prefix would be: O(n²) for the matrix, plus the
// buffer's insertions.
func Outliers(d [][]float64, k int) ([]OutlierScore, error) {
	if err := validateMatrix(d); err != nil {
		return nil, err
	}
	n := len(d)
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
	knn := make([]Neighbor, 0, k)
	for i, row := range d {
		knn = knn[:0]
		sum := 0.0
		for j, v := range row {
			if j != i {
				sum += v
				knn = pushNearest(knn, k, j, v)
			}
		}
		knnSum := 0.0
		for _, nb := range knn {
			knnSum += nb.Distance
		}
		out[i] = OutlierScore{
			Index:   i,
			Score:   knnSum / float64(k),
			MeanAll: sum / float64(n-1),
		}
	}
	slices.SortFunc(out, func(a, b OutlierScore) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return out, nil
}

// Neighbor is one entry of a nearest-neighbor answer.
type Neighbor struct {
	Index    int
	Distance float64
}

// Nearest returns the k items closest to item i, ascending by distance
// (ties toward lower indices), excluding i itself. k is clamped to
// [0, n-1]. Row i is scanned once into a k-slot buffer: O(n) plus the
// buffer's insertions.
func Nearest(d [][]float64, i, k int) ([]Neighbor, error) {
	if err := validateMatrix(d); err != nil {
		return nil, err
	}
	n := len(d)
	if i < 0 || i >= n {
		return nil, fmt.Errorf("cluster: item %d outside matrix of %d items", i, n)
	}
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 {
		return nil, nil
	}
	out := make([]Neighbor, 0, k)
	for j, v := range d[i] {
		if j != i {
			out = pushNearest(out, k, j, v)
		}
	}
	return out, nil
}

// pushNearest offers item j at distance v to buf, the at most k
// nearest items seen so far, sorted by (distance, index). Items must
// be offered in ascending index order: a newcomer then goes after
// every held entry at its distance and a tie never displaces the last
// slot, which keeps lower indices first, as a stable sort would.
func pushNearest(buf []Neighbor, k, j int, v float64) []Neighbor {
	if len(buf) == k {
		if !(v < buf[k-1].Distance) {
			return buf
		}
		buf = buf[:k-1]
	}
	p := len(buf)
	buf = append(buf, Neighbor{})
	for p > 0 && buf[p-1].Distance > v {
		buf[p] = buf[p-1]
		p--
	}
	buf[p] = Neighbor{Index: j, Distance: v}
	return buf
}
