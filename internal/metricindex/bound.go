package metricindex

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cost"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// This file implements the two count lower bounds on the run edit
// distance. Both read one summary per run: its class counts cnt(s),
// the number of run-tree nodes whose homology class h(v) is the
// specification node s (sptree.Prepared.Size, every class, internal
// nodes included).
//
// # The histogram bound
//
// The Q entries of cnt are the run's status histogram: its leaves per
// specification edge. In any well-formed mapping between two runs,
// mapped leaves are homologous — they land in the same bucket on both
// sides — so the leaves the mapping fails to pair number at least the
// L1 gap between the two histograms. Every edit operation inserts or
// deletes one elementary path of length l, which accounts for exactly
// l unmapped leaves and costs γ(l, src, dst); summing over the
// operations of an optimal edit script,
//
//	d(r1, r2) = Σ γ(l_i, ·) ≥ Σ l_i · min_l γ(l, ·)/l ≥ rate · L1(h1, h2)
//
// where rate = min over achievable operation lengths l of γ(l, ·)/l,
// minimized over terminal labels. Operation lengths are branch-free
// execution lengths of specification subtrees (X and W_TG in
// internal/naive both price exactly those), and every such length is
// at most the maximum achievable length Lmax of the specification root
// — so minimizing γ(l)/l over l = 1..Lmax is sound.
//
// The rate is model-specific: 1 for the length model (the bound is
// exact leaf accounting), 1/Lmax for unit cost, Lmax^(ε-1) for
// sublinear powers. For label-dependent models the label minimum must
// also be taken; for models we cannot analyze (cost.Func, unknown
// implementations) the rate is 0, which soundly disables the bound and
// leaves triangle pruning on its own.
//
// # The op-count bound
//
// Let Δ(s) = cnt₂(s) − cnt₁(s), Δ⁺ = max(Δ, 0), Δ⁻ = max(−Δ, 0), and
// define bottom-up over the specification tree
//
//	f±(s) = max(Δ±(s), g±(s)),  g±(P) = Σ_children f±(c),
//	g±(S, F, L) = max_children f±(c),  g±(Q) = 0.
//
// Then d(r1, r2) ≥ μ·(N⁺ + N⁻), with N± = max(f±(root), ⌈L±/Lmax⌉),
// L± the sum of Δ± over Q classes, and μ the least cost of one
// operation (min over l = 1..Lmax of γ(l, ·)). Proof:
//
//   - d is the cost of a valid script of elementary insertions and
//     deletions (core's Script checks that its total equals the
//     distance), so d ≥ μ·(#insertions + #deletions).
//   - An inserted elementary subtree is branch-free: at every S node
//     it holds all children, at a P node one branch, at an F or L node
//     one copy or iteration. So it holds at most one node per class,
//     and never nodes of two branches of one P node (their lowest
//     common ancestor would be a P node with two branches in the
//     subtree).
//   - Net of deletions, class s gains Δ(s) nodes, so at least Δ⁺(s)
//     insertions hold a node of class s. Take a set A of classes lying
//     pairwise in different branches of some P node: no insertion
//     holds two of them, so #insertions ≥ Σ_{s∈A} Δ⁺(s). f⁺(root) is
//     the largest such sum: within the subtree of s, A is either {s}
//     or lies below s, split across the branches of a P node (the sum
//     over children) and confined to one child of any other node (the
//     maximum over children).
//   - Each insertion adds at most Lmax leaves, so #insertions ≥
//     ⌈L⁺/Lmax⌉.
//   - Deletions are symmetric, with Δ⁻.
//
// Under unit cost μ = 1 and the bound counts operations where the
// histogram bound only counts leaves at rate 1/Lmax; runs that differ
// in fork copies under different P branches are the case it is tight
// for. μ is 1 for unit, length and power with ε ∈ [0, 1], min weight
// times the base model's μ for cost.Weighted, and 0 (bound off) for
// anything else, by the same rule as the histogram rate.

// specTree is the flattened specification tree the op-count bound
// walks: positions are postorder, so every node follows its children
// and the root comes last. It is built once per specification an
// index holds and shared by every state that holds it.
type specTree struct {
	id     []int32 // specification node ID at each position
	parent []int32 // position of the parent; -1 at the root
	par    []bool  // the node at this position is a P node
	leaf   []bool  // the node at this position is a Q node
	leaves []int32 // specification node IDs of the Q nodes
	maxLen int     // Lmax: the longest elementary path of the root

	// acc holds *[]int32 scratch of 2·len(id) zeros: the running g⁺
	// and g⁻ of every position. opCount leaves it zeroed again, so a
	// query computes bounds without allocating.
	acc sync.Pool
}

// newSpecTree flattens sp's tree.
func newSpecTree(sp *spec.Spec) *specTree {
	n := sp.Tree.CountNodes()
	t := &specTree{
		id:     make([]int32, 0, n),
		parent: make([]int32, 0, n),
		par:    make([]bool, 0, n),
		leaf:   make([]bool, 0, n),
		maxLen: maxOpLength(sp),
	}
	t.flatten(sp.Tree)
	t.parent[len(t.parent)-1] = -1
	t.acc.New = func() any {
		buf := make([]int32, 2*n)
		return &buf
	}
	return t
}

// flatten appends v's subtree in postorder and returns v's position,
// pointing its children's parent slots at it.
func (t *specTree) flatten(v *sptree.Node) int32 {
	var kids []int32
	for _, c := range v.Children {
		kids = append(kids, t.flatten(c))
	}
	at := int32(len(t.id))
	for _, k := range kids {
		t.parent[k] = at
	}
	t.id = append(t.id, int32(v.ID))
	t.parent = append(t.parent, 0)
	t.par = append(t.par, v.Type == sptree.P)
	t.leaf = append(t.leaf, v.IsLeaf())
	if v.IsLeaf() {
		t.leaves = append(t.leaves, int32(v.ID))
	}
	return at
}

// leafL1 returns Σ |a[s] − b[s]| over the Q classes s: the L1 gap of
// the two runs' status histograms.
func (t *specTree) leafL1(a, b []int32) float64 {
	var sum int64
	for _, s := range t.leaves {
		d := int64(a[s]) - int64(b[s])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum)
}

// opCount returns N⁺ + N⁻ for class counts a (the run diffed from)
// and b: the fewest elementary operations any script between the two
// runs can have (see the file comment). Symmetric in a and b.
func (t *specTree) opCount(a, b []int32) int {
	bufp := t.acc.Get().(*[]int32)
	n := len(t.id)
	accP, accM := (*bufp)[:n], (*bufp)[n:2*n]
	var leafP, leafM, fP, fM int32
	for k, s := range t.id {
		d := b[s] - a[s]
		dP, dM := max(d, 0), max(-d, 0)
		if t.leaf[k] {
			leafP += dP
			leafM += dM
		}
		fP, fM = max(dP, accP[k]), max(dM, accM[k])
		accP[k], accM[k] = 0, 0
		p := t.parent[k]
		switch {
		case p < 0:
		case t.par[p]:
			accP[p] += fP
			accM[p] += fM
		default:
			accP[p] = max(accP[p], fP)
			accM[p] = max(accM[p], fM)
		}
	}
	t.acc.Put(bufp)
	// The root comes last, so fP and fM hold f⁺(root) and f⁻(root).
	l := int32(t.maxLen)
	return int(max(fP, (leafP+l-1)/l) + max(fM, (leafM+l-1)/l))
}

// maxOpLength is the largest elementary-path length any edit operation
// on runs of sp can have: the maximum branch-free execution length of
// the specification root.
func maxOpLength(sp *spec.Spec) int {
	ls := sp.AchievableLengths(sp.Tree)
	if len(ls) == 0 {
		return max(sp.G.NumEdges(), 1)
	}
	return ls[len(ls)-1] // AchievableLengths is ascending
}

// costFloor is the least price m puts on one operation of length
// 1..maxLen, per leaf when perLeaf holds (min γ(l)/l, the histogram
// rate) and per operation otherwise (min γ(l), the op-count μ).
// Weighted prices are Base(l)·(w_src + w_dst)/2 with absent labels
// weighing 1, so they floor at min(1, min declared weight) times the
// base floor. Any other model gets 0: a vacuous, always valid floor.
func costFloor(m cost.Model, maxLen int, perLeaf bool) float64 {
	switch w := m.(type) {
	case cost.Unit, cost.Length, cost.Power:
	case cost.Weighted:
		minW := 1.0
		for _, v := range w.W {
			minW = min(minW, v)
		}
		if minW <= 0 {
			return 0
		}
		return minW * costFloor(w.Base, maxLen, perLeaf)
	default:
		return 0
	}
	floor := math.Inf(1)
	for l := 1; l <= maxLen; l++ {
		c := m.PathCost(l, "", "")
		if perLeaf {
			c /= float64(l)
		}
		floor = min(floor, c)
	}
	return max(floor, 0)
}

// LowerBoundRate returns the histogram-bound rate for a model over
// runs of sp: every unmapped leaf instance costs at least this much
// under m, and 0 means the bound is unavailable (vacuous). The live
// drift monitor prices excess executed instances with it.
func LowerBoundRate(m cost.Model, sp *spec.Spec) float64 {
	return costFloor(m, maxOpLength(sp), true)
}

// pairCounts checks that two runs can be bounded and returns their
// class counts.
func pairCounts(r1, r2 *wfrun.Run) ([]int32, []int32, error) {
	if r1 == nil || r2 == nil || r1.Tree == nil || r2.Tree == nil {
		return nil, nil, fmt.Errorf("metricindex: runs lack annotated SP-trees")
	}
	if r1.Spec == nil || r1.Spec != r2.Spec {
		return nil, nil, fmt.Errorf("metricindex: runs belong to different specifications")
	}
	p1, p2 := wfrun.Prepare(r1, r2)
	return p1.Size, p2.Size, nil
}

// HistogramBound returns the histogram lower bound on the edit
// distance between two runs of the same specification under model m:
// a number never exceeding the exact Engine/naive distance. It derives
// the rate and the flattened tree from scratch — the property-test
// entry point; Index queries use the forms each state keeps.
func HistogramBound(m cost.Model, r1, r2 *wfrun.Run) (float64, error) {
	a, b, err := pairCounts(r1, r2)
	if err != nil {
		return 0, err
	}
	t := newSpecTree(r1.Spec)
	return costFloor(m, t.maxLen, true) * t.leafL1(a, b), nil
}

// OpCountBound returns the op-count lower bound μ·(N⁺ + N⁻) on the
// edit distance between two runs of the same specification under
// model m, derived from scratch like HistogramBound. It is 0 for
// models whose μ cannot be derived.
func OpCountBound(m cost.Model, r1, r2 *wfrun.Run) (float64, error) {
	a, b, err := pairCounts(r1, r2)
	if err != nil {
		return 0, err
	}
	t := newSpecTree(r1.Spec)
	mu := costFloor(m, t.maxLen, false)
	if mu == 0 {
		return 0, nil
	}
	return mu * float64(t.opCount(a, b)), nil
}
