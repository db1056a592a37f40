// Package match provides the two matching primitives of the
// differencing algorithm: minimum-cost bipartite matching with
// insertion/deletion slack for F nodes (solved with the Hungarian
// algorithm, Section V-C Case 4), and minimum-cost non-crossing
// bipartite matching for the ordered children of L nodes (solved with
// an edit-distance style dynamic program, Section VI).
//
// Both primitives exist in two forms. The closure-based package
// functions Bipartite and NonCrossing allocate their result and are
// convenient for one-off calls. The Scratch methods take
// caller-provided flat cost rows and reuse all interior buffers
// (assignment matrix, potentials, DP table, result pairs), so a batch
// of k matchings performs O(1) steady-state allocation; a diff Engine
// owns one Scratch and threads it through every F/L node.
package match

import (
	"math"
	"sync"
)

// Inf is the cost used to forbid a pairing.
var Inf = math.Inf(1)

// Result describes a matching between m left items and n right items.
type Result struct {
	// Cost is the total cost: matched pair costs plus deletion costs
	// for unmatched left items plus insertion costs for unmatched
	// right items.
	Cost float64
	// Pairs lists matched (left, right) index pairs.
	Pairs [][2]int
}

// Clone returns a Result whose Pairs are detached from any Scratch
// buffers.
func (r Result) Clone() Result {
	r.Pairs = append([][2]int(nil), r.Pairs...)
	return r
}

// Scratch holds the reusable working state of both matchers. The
// Result returned by its methods aliases Scratch buffers (Pairs): it
// is valid until the next call on the same Scratch, so copy (Clone)
// anything that must outlive it. A Scratch must not be used from
// several goroutines at once; its zero value is ready to use.
type Scratch struct {
	cost   []float64 // (m+n)² assignment matrix, row-major
	u, v   []float64 // Hungarian potentials
	minv   []float64
	p, way []int
	used   []bool
	assign []int

	dp []float64 // non-crossing DP table, (m+1)×(n+1) row-major

	pairs  [][2]int
	solves int64 // padded Hungarian solves run

	pairBuf, delBuf, insBuf []float64 // closure-API staging
}

// grow returns a slice of length n, reusing s's backing array when it
// is large enough; contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Bipartite finds a minimum-cost matching between m left items and n
// right items where pairing (i, j) costs pairCost[i*n+j] (row-major),
// leaving left item i unmatched costs del[i], and leaving right item j
// unmatched costs ins[j]. Every item may be matched at most once. This
// is the bipartite graph of Fig. 9 with the special "−" and "+" nodes,
// reduced to an (m+n) × (m+n) assignment problem: left items and n
// insertion slots on one side, right items and m deletion slots on the
// other; slot-to-slot cells cost zero. Deletion and insertion costs
// must be finite.
//
// A residue with one side empty skips the Hungarian step: the padded
// solve there assigns the rows in index order and sums the cells in
// column order, so Cost is the index-order sum of del (or of ins), bit
// for bit. Solves counts the padded solves that remain.
func (s *Scratch) Bipartite(m, n int, pairCost, del, ins []float64) Result {
	if m+n == 0 {
		return Result{}
	}
	s.pairs = s.pairs[:0]
	switch {
	case m == 0:
		return Result{Cost: sum(ins), Pairs: s.pairs}
	case n == 0:
		return Result{Cost: sum(del), Pairs: s.pairs}
	}
	return s.padded(m, n, pairCost, del, ins)
}

// Solves reports how many padded Hungarian solves the Scratch has run.
func (s *Scratch) Solves() int64 { return s.solves }

// padded solves the (m+n)² assignment problem Bipartite describes with
// the Hungarian method, appending to an emptied pair list.
func (s *Scratch) padded(m, n int, pairCost, del, ins []float64) Result {
	s.solves++
	size := m + n
	s.cost = grow(s.cost, size*size)
	for i := 0; i < size; i++ {
		row := s.cost[i*size : (i+1)*size]
		for j := 0; j < size; j++ {
			switch {
			case i < m && j < n:
				row[j] = pairCost[i*n+j]
			case i < m:
				row[j] = del[i]
			case j < n:
				row[j] = ins[j]
			default:
				row[j] = 0
			}
		}
	}
	total := s.hungarian(size)
	for i := 0; i < m; i++ {
		if j := s.assign[i]; j < n {
			s.pairs = append(s.pairs, [2]int{i, j})
		}
	}
	return Result{Cost: total, Pairs: s.pairs}
}

// sum adds xs in index order from 0, as the padded solve's column
// scan does.
func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// hungarian solves the square assignment problem over s.cost (n×n,
// row-major), filling s.assign with the column assigned to each row
// and returning the total cost. It is the O(n³) Jonker-style shortest
// augmenting path formulation of the Hungarian method (Kuhn 1955),
// operating on potentials u, v.
func (s *Scratch) hungarian(n int) float64 {
	s.u = grow(s.u, n+1)
	s.v = grow(s.v, n+1)
	s.p = grow(s.p, n+1)
	s.way = grow(s.way, n+1)
	s.minv = grow(s.minv, n+1)
	s.used = grow(s.used, n+1)
	for j := 0; j <= n; j++ {
		s.u[j], s.v[j], s.p[j], s.way[j] = 0, 0, 0, 0
	}
	cost := s.cost
	for i := 1; i <= n; i++ {
		s.p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			s.minv[j] = Inf
			s.used[j] = false
		}
		for {
			s.used[j0] = true
			i0 := s.p[j0]
			delta := Inf
			j1 := 0
			base := (i0 - 1) * n
			for j := 1; j <= n; j++ {
				if s.used[j] {
					continue
				}
				cur := cost[base+j-1] - s.u[i0] - s.v[j]
				if cur < s.minv[j] {
					s.minv[j] = cur
					s.way[j] = j0
				}
				if s.minv[j] < delta {
					delta = s.minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if s.used[j] {
					s.u[s.p[j]] += delta
					s.v[j] -= delta
				} else {
					s.minv[j] -= delta
				}
			}
			j0 = j1
			if s.p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := s.way[j0]
			s.p[j0] = s.p[j1]
			j0 = j1
		}
	}
	s.assign = grow(s.assign, n)
	total := 0.0
	for j := 1; j <= n; j++ {
		if s.p[j] > 0 {
			s.assign[s.p[j]-1] = j - 1
			total += cost[(s.p[j]-1)*n+j-1]
		}
	}
	return total
}

// NonCrossing finds a minimum-cost non-crossing matching between m
// ordered left items and n ordered right items: if (i, j) and (i', j')
// are both matched and i < i', then j < j'. Costs are given as in
// (*Scratch).Bipartite. Solved by the classic O(mn) sequence-alignment
// dynamic program over a flat DP table.
func (s *Scratch) NonCrossing(m, n int, pairCost, del, ins []float64) Result {
	stride := n + 1
	s.dp = grow(s.dp, (m+1)*stride)
	dp := s.dp
	dp[0] = 0
	for i := 1; i <= m; i++ {
		dp[i*stride] = dp[(i-1)*stride] + del[i-1]
	}
	for j := 1; j <= n; j++ {
		dp[j] = dp[j-1] + ins[j-1]
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			best := dp[(i-1)*stride+j] + del[i-1]
			if c := dp[i*stride+j-1] + ins[j-1]; c < best {
				best = c
			}
			if c := dp[(i-1)*stride+j-1] + pairCost[(i-1)*n+j-1]; c < best {
				best = c
			}
			dp[i*stride+j] = best
		}
	}
	s.pairs = s.pairs[:0]
	// Backtrack, preferring matches so ties yield maximal pairings.
	const eps = 1e-9
	i, j := m, n
	for i > 0 || j > 0 {
		cur := dp[i*stride+j]
		switch {
		case i > 0 && j > 0 && cur >= dp[(i-1)*stride+j-1]+pairCost[(i-1)*n+j-1]-eps && cur <= dp[(i-1)*stride+j-1]+pairCost[(i-1)*n+j-1]+eps:
			s.pairs = append(s.pairs, [2]int{i - 1, j - 1})
			i, j = i-1, j-1
		case i > 0 && cur >= dp[(i-1)*stride+j]+del[i-1]-eps && cur <= dp[(i-1)*stride+j]+del[i-1]+eps:
			i--
		default:
			j--
		}
	}
	// Reverse into increasing order.
	for a, b := 0, len(s.pairs)-1; a < b; a, b = a+1, b-1 {
		s.pairs[a], s.pairs[b] = s.pairs[b], s.pairs[a]
	}
	return Result{Cost: dp[m*stride+n], Pairs: s.pairs}
}

// fill stages closure-provided costs into the Scratch's flat row
// buffers for the closure-based package API.
func (s *Scratch) fill(m, n int, pair func(i, j int) float64, del func(i int) float64, ins func(j int) float64) (pairCost, dels, inss []float64) {
	s.pairBuf = grow(s.pairBuf, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s.pairBuf[i*n+j] = pair(i, j)
		}
	}
	s.delBuf = grow(s.delBuf, m)
	for i := 0; i < m; i++ {
		s.delBuf[i] = del(i)
	}
	s.insBuf = grow(s.insBuf, n)
	for j := 0; j < n; j++ {
		s.insBuf[j] = ins(j)
	}
	return s.pairBuf, s.delBuf, s.insBuf
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Bipartite is the closure-based convenience form of
// (*Scratch).Bipartite; the returned Result owns its memory.
func Bipartite(m, n int, pair func(i, j int) float64, del func(i int) float64, ins func(j int) float64) Result {
	s := scratchPool.Get().(*Scratch)
	pairCost, dels, inss := s.fill(m, n, pair, del, ins)
	res := s.Bipartite(m, n, pairCost, dels, inss).Clone()
	scratchPool.Put(s)
	return res
}

// NonCrossing is the closure-based convenience form of
// (*Scratch).NonCrossing; the returned Result owns its memory.
func NonCrossing(m, n int, pair func(i, j int) float64, del func(i int) float64, ins func(j int) float64) Result {
	s := scratchPool.Get().(*Scratch)
	pairCost, dels, inss := s.fill(m, n, pair, del, ins)
	res := s.NonCrossing(m, n, pairCost, dels, inss).Clone()
	scratchPool.Put(s)
	return res
}
