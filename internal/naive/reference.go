package naive

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// Distance is the naive-but-polynomial reference implementation of the
// run edit distance: the same recurrences as MappingOracle and
// DeletionOracle, made tractable on trees of hundreds of nodes by
// plain pointer-keyed memo maps (and a quadratic DP for the L case in
// place of full monotone enumeration). It shares no code with
// core.Engine — no arenas, no flat preorder indexing, no generation
// stamps, no scratch reuse — so agreement between the two on
// randomized workloads is evidence the engine's optimizations preserve
// the metric, which is exactly what the differential test harness
// asserts thousands of times per CI run.
//
// The F (fork) case is a dynamic program over the subsets of the
// smaller side's copies, not a Hungarian step: exact, and exponential
// only in that copy count, so runs of Fig. 11 size (a dozen copies per
// fork) stay tractable.
func Distance(r1, r2 *wfrun.Run, m cost.Model) (float64, error) {
	if r1.Spec == nil || r1.Spec != r2.Spec {
		return 0, fmt.Errorf("naive: runs belong to different specifications")
	}
	if r1.Tree == nil || r2.Tree == nil {
		return 0, fmt.Errorf("naive: runs lack annotated SP-trees")
	}
	rd := &refDiff{
		m:   m,
		sp:  r1.Spec,
		red: map[*sptree.Node]map[int]float64{},
		x:   map[*sptree.Node]float64{},
		w:   map[[2]*sptree.Node]float64{},
		c:   map[[2]*sptree.Node]float64{},
	}
	return rd.cost(r1.Tree, r2.Tree), nil
}

// refDiff carries the memo maps of one reference computation.
type refDiff struct {
	m   cost.Model
	sp  *spec.Spec
	red map[*sptree.Node]map[int]float64 // reduction sets (Algorithm 3)
	x   map[*sptree.Node]float64         // X(v), min subtree-deletion cost
	w   map[[2]*sptree.Node]float64      // W_TG over specification nodes
	c   map[[2]*sptree.Node]float64      // γ(M(v1, v2)) over homologous pairs
}

// X is the minimum cost of deleting T[v]: reduce to a branch-free
// subtree with l leaves, then delete that elementary subtree in one
// operation.
func (rd *refDiff) X(v *sptree.Node) float64 {
	if got, ok := rd.x[v]; ok {
		return got
	}
	best := math.Inf(1)
	for l, c := range rd.reduction(v) {
		if cand := c + rd.m.PathCost(l, v.Src, v.Dst); cand < best {
			best = cand
		}
	}
	rd.x[v] = best
	return best
}

// reduction maps achievable branch-free leaf counts of T[v] to the
// minimum cost of reaching them — reductionSet with memoization, which
// turns the shared-subproblem blowup into a polynomial DP.
func (rd *refDiff) reduction(v *sptree.Node) map[int]float64 {
	if got, ok := rd.red[v]; ok {
		return got
	}
	var out map[int]float64
	switch v.Type {
	case sptree.Q:
		out = map[int]float64{1: 0}
	case sptree.P, sptree.F, sptree.L:
		out = map[int]float64{}
		sumX := 0.0
		for _, c := range v.Children {
			sumX += rd.X(c)
		}
		for _, keep := range v.Children {
			others := sumX - rd.X(keep)
			for l, c := range rd.reduction(keep) {
				if cur, ok := out[l]; !ok || c+others < cur {
					out[l] = c + others
				}
			}
		}
	case sptree.S:
		out = map[int]float64{0: 0}
		for _, c := range v.Children {
			next := map[int]float64{}
			childSet := rd.reduction(c)
			for l0, c0 := range out {
				for l1, c1 := range childSet {
					if cur, ok := next[l0+l1]; !ok || c0+c1 < cur {
						next[l0+l1] = c0 + c1
					}
				}
			}
			out = next
		}
		delete(out, 0)
	}
	rd.red[v] = out
	return out
}

// W is W_TG(a, b) over specification nodes: the minimum insertion cost
// of a branch-free execution of a child of a other than b.
func (rd *refDiff) W(a, b *sptree.Node) float64 {
	key := [2]*sptree.Node{a, b}
	if got, ok := rd.w[key]; ok {
		return got
	}
	best := math.Inf(1)
	for _, c := range a.Children {
		if c == b {
			continue
		}
		for _, l := range rd.sp.AchievableLengths(c) {
			if cand := rd.m.PathCost(l, a.Src, a.Dst); cand < best {
				best = cand
			}
		}
	}
	rd.w[key] = best
	return best
}

// cost is γ(M(v1, v2)): the minimum cost over well-formed mappings of
// T1[v1] onto T2[v2], for homologous v1, v2.
func (rd *refDiff) cost(v1, v2 *sptree.Node) float64 {
	key := [2]*sptree.Node{v1, v2}
	if got, ok := rd.c[key]; ok {
		return got
	}
	var out float64
	switch v1.Type {
	case sptree.Q:
		out = 0

	case sptree.S:
		// Children of mapped S nodes are preserved pairwise.
		for i := range v1.Children {
			out += rd.cost(v1.Children[i], v2.Children[i])
		}

	case sptree.P:
		out = rd.parallel(v1, v2)

	case sptree.F:
		out = rd.forkMatch(v1.Children, v2.Children)

	case sptree.L:
		out = rd.monotone(v1.Children, v2.Children)

	default:
		panic("naive: unknown node type")
	}
	rd.c[key] = out
	return out
}

// parallel mirrors the engine's P handling: the single-homologous-
// children case may unstably re-pair via W_TG; otherwise children pair
// up by specification branch and each pair is kept only when mapping
// beats deleting both sides.
func (rd *refDiff) parallel(v1, v2 *sptree.Node) float64 {
	if len(v1.Children) == 1 && len(v2.Children) == 1 &&
		v1.Children[0].Spec == v2.Children[0].Spec {
		c1, c2 := v1.Children[0], v2.Children[0]
		mapped := rd.cost(c1, c2)
		swap := rd.X(c1) + rd.X(c2) + 2*rd.W(v1.Spec, c1.Spec)
		return math.Min(mapped, swap)
	}
	by1 := map[*sptree.Node]*sptree.Node{}
	for _, c := range v1.Children {
		by1[c.Spec] = c
	}
	total := 0.0
	for _, c2 := range v2.Children {
		if c1, ok := by1[c2.Spec]; ok {
			total += math.Min(rd.cost(c1, c2), rd.X(c1)+rd.X(c2))
			delete(by1, c2.Spec)
		} else {
			total += rd.X(c2)
		}
	}
	for _, c1 := range by1 {
		total += rd.X(c1)
	}
	return total
}

// forkMatch is the minimum-cost partial matching of fork copies, an
// unmatched copy being deleted (left) or inserted (right). It runs a
// dynamic program over the rows of the larger side, keyed by the set
// of the smaller side's copies already used.
func (rd *refDiff) forkMatch(left, right []*sptree.Node) float64 {
	rows, cols := left, right
	pair := func(r, c *sptree.Node) float64 { return rd.cost(r, c) }
	if len(cols) > len(rows) {
		rows, cols = right, left
		pair = func(r, c *sptree.Node) float64 { return rd.cost(c, r) }
	}
	f := make([]float64, 1<<len(cols))
	for i := range f {
		f[i] = math.Inf(1)
	}
	f[0] = 0
	for _, r := range rows {
		g := make([]float64, len(f))
		for i := range g {
			g[i] = math.Inf(1)
		}
		for used, v := range f {
			if math.IsInf(v, 1) {
				continue
			}
			g[used] = math.Min(g[used], v+rd.X(r))
			for j, c := range cols {
				if used&(1<<j) == 0 {
					g[used|1<<j] = math.Min(g[used|1<<j], v+pair(r, c))
				}
			}
		}
		f = g
	}
	best := math.Inf(1)
	for used, v := range f {
		for j, c := range cols {
			if used&(1<<j) == 0 {
				v += rd.X(c)
			}
		}
		best = math.Min(best, v)
	}
	return best
}

// monotone computes the minimum-cost non-crossing matching of ordered
// loop iterations by the classic quadratic edit-distance DP.
func (rd *refDiff) monotone(left, right []*sptree.Node) float64 {
	m, n := len(left), len(right)
	prev := make([]float64, n+1)
	cur := make([]float64, n+1)
	for j := 1; j <= n; j++ {
		prev[j] = prev[j-1] + rd.X(right[j-1])
	}
	for i := 1; i <= m; i++ {
		cur[0] = prev[0] + rd.X(left[i-1])
		for j := 1; j <= n; j++ {
			best := prev[j] + rd.X(left[i-1])
			if c := cur[j-1] + rd.X(right[j-1]); c < best {
				best = c
			}
			if c := prev[j-1] + rd.cost(left[i-1], right[j-1]); c < best {
				best = c
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}
