// Package core implements the differencing algorithm of Bao et al.:
// the subtree-deletion dynamic program (Algorithm 3), the edit
// distance / minimum-cost well-formed mapping computation on annotated
// SP-trees (Algorithm 4, extended to loops by Algorithm 6), and the
// assembly of a validity-preserving minimum-cost edit script from the
// mapping (the constructive proof of Lemma 5.1).
package core

import (
	"math"
	"slices"

	"repro/internal/cost"
	"repro/internal/sptree"
)

var inf = math.Inf(1)

// deleter computes, per Algorithm 3, for every node v of an annotated
// run tree:
//
//	X(v)    — the minimum cost of deleting T[v];
//	Y(v)[l] — the minimum cost of a sequence of elementary subtree
//	          deletions reducing T[v] to a branch-free subtree with
//	          exactly l leaves;
//	l(v)    — the maximum achievable l.
//
// P, F and L nodes keep exactly one child and delete the others
// (loops are handled exactly like forks, Section VI); S nodes split
// the leaf budget over their children by the Z dynamic program.
// Argmins are recorded so deletion plans can be reconstructed.
//
// The tables are keyed by shape ID, not by node: every method takes
// the shape IDs of v's tree, indexed by node ID. Equal-shape subtrees
// have equal tables (a shape fixes every label PathCost reads), so
// the tables serve every tree whose IDs come from the same shape
// generation and outlive any one diff. For P, F and L nodes the argmin
// names the kept child by its shape, so a plan can be replayed on any
// node of that shape. Any keying in which equal keys mean equal
// subtrees works; DeletionCost keys each node by its own ID.
type deleter struct {
	model cost.Model
	t     []delEntry // by shape ID

	z, zprev, xs []float64 // shared rows of the S-node Z DP and the P/F/L sum
}

// delEntry holds the tables of one shape.
type delEntry struct {
	x    float64   // X(v); NaN = uncomputed
	best int32     // argmin_l Y(v)[l] + γ(l, s(v), t(v))
	y    []float64 // y[l], l in [0, l(v)]; unreachable = +Inf
	// arg is, for P/F/L, the shape of the child kept to reach l
	// leaves (-1: none); for S, row i (children 0..i) of the Z DP's
	// argmin, the leaves given to children 0..i-1, as i*len(y)+l.
	arg []int32
}

func newDeleter(m cost.Model) *deleter {
	return &deleter{model: m}
}

// reset marks every entry uncomputed while keeping all backing arrays,
// for a new specification or shape generation.
func (d *deleter) reset() {
	for i := range d.t {
		d.t[i].x = math.NaN()
	}
}

// X returns the minimum cost of deleting T[v].
func (d *deleter) X(v *sptree.Node, shape []int32) float64 {
	return d.ensure(v, shape).x
}

// growRow returns a slice of length n, reusing s's backing array when
// it is large enough; contents are unspecified.
func growRow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ensure computes the tables of v's shape (and its descendants') once
// and returns them.
func (d *deleter) ensure(v *sptree.Node, shape []int32) *delEntry {
	id := int(shape[v.ID])
	for len(d.t) <= id {
		d.t = append(d.t, delEntry{x: math.NaN()})
	}
	if !math.IsNaN(d.t[id].x) {
		return &d.t[id]
	}
	for _, c := range v.Children {
		d.ensure(c, shape)
	}
	// d.t no longer grows below: child entries are all present.
	e := &d.t[id]
	switch v.Type {
	case sptree.Q:
		e.y = growRow(e.y, 2)
		e.y[0], e.y[1] = inf, 0

	case sptree.P, sptree.F, sptree.L:
		maxL := 0
		// Sum the children's X in ascending order, so the value does
		// not depend on which node of the shape came first.
		d.xs = d.xs[:0]
		for _, c := range v.Children {
			ce := &d.t[shape[c.ID]]
			if lc := len(ce.y) - 1; lc > maxL {
				maxL = lc
			}
			d.xs = append(d.xs, ce.x)
		}
		slices.Sort(d.xs)
		sumX := 0.0
		for _, x := range d.xs {
			sumX += x
		}
		e.y = growRow(e.y, maxL+1)
		e.arg = growRow(e.arg, maxL+1)
		e.y[0], e.arg[0] = inf, -1
		for l := 1; l <= maxL; l++ {
			e.y[l] = inf
			e.arg[l] = -1
			for _, c := range v.Children {
				cs := shape[c.ID]
				ce := &d.t[cs]
				if l >= len(ce.y) || math.IsInf(ce.y[l], 1) {
					continue
				}
				if cand := ce.y[l] + sumX - ce.x; cand < e.y[l] {
					e.y[l] = cand
					e.arg[l] = cs
				}
			}
		}

	case sptree.S:
		maxL := 0
		for _, c := range v.Children {
			maxL += len(d.t[shape[c.ID]].y) - 1
		}
		w := maxL + 1
		// z and zprev are deleter-shared rows: safe because all child
		// tables are already computed, so no recursion happens below.
		z := growRow(d.z, w)
		zprev := growRow(d.zprev, w)
		arg := growRow(e.arg, len(v.Children)*w)
		for i := range zprev {
			zprev[i] = inf
		}
		zprev[0] = 0
		for i, c := range v.Children {
			row := arg[i*w : (i+1)*w]
			yc := d.t[shape[c.ID]].y
			for l := 0; l <= maxL; l++ {
				z[l] = inf
				row[l] = -1
				for k := 0; k <= l; k++ {
					if math.IsInf(zprev[k], 1) {
						continue
					}
					lc := l - k
					if lc >= len(yc) || math.IsInf(yc[lc], 1) {
						continue
					}
					if cand := zprev[k] + yc[lc]; cand < z[l] {
						z[l] = cand
						row[l] = int32(k)
					}
				}
			}
			z, zprev = zprev, z
		}
		e.y = growRow(e.y, w)
		copy(e.y, zprev[:w])
		e.y[0] = inf // an S node always retains at least one leaf per child
		e.arg = arg
		d.z, d.zprev = z, zprev
	}

	// X(v) = min over l of Y(v)[l] + γ(l, s(v), t(v)): reduce to an
	// elementary subtree with l leaves, then delete it in one step.
	best := inf
	bestL := -1
	for l := 1; l < len(e.y); l++ {
		if math.IsInf(e.y[l], 1) {
			continue
		}
		if cand := e.y[l] + d.model.PathCost(l, v.Src, v.Dst); cand < best {
			best = cand
			bestL = l
		}
	}
	e.x = best
	e.best = int32(bestL)
	return e
}

// planReduce appends to plan the ordered elementary deletions that
// reduce T[v] to a branch-free subtree with exactly l leaves; every
// listed node is deleted after the reductions that precede it.
func (d *deleter) planReduce(v *sptree.Node, shape []int32, l int, plan *[]*sptree.Node) {
	e := d.ensure(v, shape)
	switch v.Type {
	case sptree.Q:
		// Already branch-free with one leaf.

	case sptree.P, sptree.F, sptree.L:
		keep, want := -1, e.arg[l]
		for i, c := range v.Children {
			if keep < 0 && shape[c.ID] == want {
				keep = i
				continue
			}
			d.planDelete(c, shape, plan)
		}
		d.planReduce(v.Children[keep], shape, l, plan)

	case sptree.S:
		w := len(e.y)
		alloc := make([]int, len(v.Children))
		rem := l
		for i := len(v.Children) - 1; i >= 0; i-- {
			k := int(e.arg[i*w+rem])
			alloc[i] = rem - k
			rem = k
		}
		for i, c := range v.Children {
			d.planReduce(c, shape, alloc[i], plan)
		}
	}
}

// planDelete appends the ordered elementary deletions that delete T[v]
// entirely: reduce it to the optimal branch-free size, then delete the
// resulting elementary subtree rooted at v (which requires p(v) to be
// a true P, F or L node at execution time).
func (d *deleter) planDelete(v *sptree.Node, shape []int32, plan *[]*sptree.Node) {
	d.planReduce(v, shape, int(d.ensure(v, shape).best), plan)
	*plan = append(*plan, v)
}
