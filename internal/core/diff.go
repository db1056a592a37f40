package core

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/match"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// decision records the outcome of the minimum-cost well-formed mapping
// computation for one pair of homologous nodes (v1, v2): its cost
// γ(M(v1, v2)) and which of their children are matched. Matched child
// pairs live in the engine's pair arena as the span [off, off+n), each
// a pair of child indices (into v1.Children, v2.Children).
type decision struct {
	cost     float64
	off, n   int32
	unstable bool // Definition 5.2: P pair whose single homologous children stay unmatched
}

// Work counts the differencing work an Engine has done since it was
// built: numbers that host noise cannot move.
type Work struct {
	// Decisions is the number of DP decisions evaluated: memo misses
	// of homologous pairs whose shapes differ.
	Decisions int64
	// Cells is the number of pair costs handed to the matchers: m·n
	// per Bipartite or NonCrossing call.
	Cells int64
	// Solves is the number of Hungarian solves: Bipartite calls with
	// both sides non-empty (match.Scratch.Solves).
	Solves int64
}

// Engine computes edit distances between valid runs of one (or many)
// specifications, reusing all interior state between calls: the
// memoization tables of Algorithms 3, 4 and 6 are flat slices indexed
// by class rank and shape ID rather than pointer-keyed maps, matched
// pairs are stored in a shared arena, and the matching primitives run
// on a reusable match.Scratch. A batch of k diffs therefore performs
// O(1) steady-state allocation instead of O(k·n²) map churn.
//
// Equal subtrees cost nothing. Every run node carries a shape ID from
// its specification's hash-consing table (sptree.Shapes), computed
// once per run (wfrun.Prepare). A pair of homologous nodes with equal
// shapes is decided at cost 0 without recursion, F nodes pair their
// equal-shape copies before the Hungarian step, and the deletion DP's
// tables are keyed by shape, so they persist across calls that share a
// specification and shape generation, as the W_TG memo does. A leaf
// penalty turns both shortcuts off: copies with equal shapes may then
// differ in data.
//
// An Engine is NOT safe for concurrent use — give each goroutine its
// own (analysis.DistanceMatrix creates one per worker). It holds no
// run between calls. Results returned by Diff borrow the engine's
// tables: their Distance is always valid, but Mapping and Script must
// be extracted before the same engine runs another Diff.
type Engine struct {
	model       cost.Model
	leafPenalty func(q1, q2 *sptree.Node) float64
	shortcut    bool // equal shapes decide at cost 0 (no leaf penalty)
	prepair     bool // F nodes pre-pair equal-shape copies (see matchCase)

	// Per-specification state, reset when the specification or the
	// shape generation changes.
	sp       *spec.Spec
	specN    int
	wMemo    []float64 // specN×specN flat W_TG memo; NaN = uncomputed
	shapeGen uint64
	del      *deleter

	// Per-call scratch, reset by Diff. p1 and p2 are set only while
	// Diff runs.
	gen       uint32
	p1, p2    *sptree.Prepared
	blockOff  []int // per homology class: offset of its memo block
	memo      []decision
	memoGen   []uint32
	pairArena [][2]int32
	zero      decision // the decision of every equal-shape pair
	stack     []int32  // matchCase frames: pre-pairing and residue lists

	rows, delCost, insCost []float64 // matchCase staging
	ms                     match.Scratch

	work Work
}

// Option configures an Engine (and thus Diff).
type Option func(*Engine)

// WithLeafPenalty makes data a factor in the matching (Section I:
// "It is a factor in the matching between nodes in the executions"):
// fn is added to the mapping cost of every matched pair of Q leaves,
// so copies whose data disagree are steered apart when re-pairing is
// cheaper. fn must be non-negative. With a leaf penalty installed,
// Result.Distance is the penalized mapping objective; the edit script
// still realizes the chosen mapping, but its operation cost equals
// Distance minus the penalties of matched leaves.
func WithLeafPenalty(fn func(q1, q2 *sptree.Node) float64) Option {
	return func(e *Engine) { e.leafPenalty = fn }
}

// NewEngine returns a reusable differencing engine for the given cost
// model.
func NewEngine(m cost.Model, opts ...Option) *Engine {
	e := &Engine{model: m, del: newDeleter(m)}
	for _, opt := range opts {
		opt(e)
	}
	e.shortcut = e.leafPenalty == nil
	e.prepair = e.shortcut && metricModel(m)
	return e
}

// metricModel reports whether the engine can vouch that m satisfies
// the triangle inequality pre-pairing rests on: the label-free models
// of Section III-C.2 with ε ∈ [0, 1] (the range cost.Parse accepts).
func metricModel(m cost.Model) bool {
	switch m := m.(type) {
	case cost.Unit, cost.Length:
		return true
	case cost.Power:
		return m.Epsilon >= 0 && m.Epsilon <= 1
	}
	return false
}

// Work returns the work the engine has done since it was built.
func (e *Engine) Work() Work {
	w := e.work
	w.Solves = e.ms.Solves()
	return w
}

// Result is the outcome of differencing two runs.
type Result struct {
	// Distance is the edit distance δ(R1, R2).
	Distance float64

	r1, r2 *wfrun.Run
	p1, p2 *sptree.Prepared
	eng    *Engine
	gen    uint32
}

// Diff computes the edit distance between two valid runs of the same
// specification under the given cost model (Algorithms 3, 4 and 6).
// The returned Result can additionally produce the minimum-cost edit
// script and the underlying well-formed mapping. Each call builds a
// fresh Engine, so the Result stays valid indefinitely; batch callers
// should construct one Engine and call its Diff instead.
func Diff(r1, r2 *wfrun.Run, m cost.Model, opts ...Option) (*Result, error) {
	return NewEngine(m, opts...).Diff(r1, r2)
}

// Distance is a convenience wrapper returning only δ(R1, R2).
func Distance(r1, r2 *wfrun.Run, m cost.Model) (float64, error) {
	res, err := Diff(r1, r2, m)
	if err != nil {
		return 0, err
	}
	return res.Distance, nil
}

// Diff computes the edit distance between two valid runs of the same
// specification, reusing the engine's scratch tables. The previous
// Result of this engine is invalidated for Mapping/Script extraction
// (its Distance remains usable).
func (e *Engine) Diff(r1, r2 *wfrun.Run) (*Result, error) {
	if r1.Spec != r2.Spec {
		return nil, fmt.Errorf("core: runs belong to different specifications")
	}
	if r1.Tree == nil || r2.Tree == nil {
		return nil, fmt.Errorf("core: runs lack annotated SP-trees")
	}
	p1, p2 := wfrun.Prepare(r1, r2)
	if e.sp != r1.Spec || e.shapeGen != p1.Gen {
		e.del.reset()
		e.shapeGen = p1.Gen
	}
	if e.sp != r1.Spec {
		e.sp = r1.Spec
		e.specN = e.sp.Tree.CountNodes()
		e.wMemo = growRow(e.wMemo, e.specN*e.specN)
		for i := range e.wMemo {
			e.wMemo[i] = math.NaN()
		}
	}
	e.gen++
	if e.gen == 0 { // uint32 wrap: flush every stamp explicitly
		for i := range e.memoGen {
			e.memoGen[i] = 0
		}
		e.gen = 1
	}
	// Lay the memo out as one block per homology class: class s gets a
	// k1(s)×k2(s) sub-matrix, so total size is the number of
	// homologous pairs, not |T1|·|T2|.
	e.blockOff = growRow(e.blockOff, e.specN)
	total := 0
	for s := 0; s < e.specN; s++ {
		e.blockOff[s] = total
		total += int(p1.Size[s]) * int(p2.Size[s])
	}
	if cap(e.memo) < total {
		e.memo = make([]decision, total)
		e.memoGen = make([]uint32, total)
	} else {
		e.memo = e.memo[:total]
		e.memoGen = e.memoGen[:total]
	}
	e.pairArena = e.pairArena[:0]
	e.p1, e.p2 = p1, p2
	dec := e.c(r1.Tree, r2.Tree)
	e.p1, e.p2 = nil, nil
	return &Result{Distance: dec.cost, r1: r1, r2: r2, p1: p1, p2: p2, eng: e, gen: e.gen}, nil
}

// Distance reuses the engine to return only δ(R1, R2).
func (e *Engine) Distance(r1, r2 *wfrun.Run) (float64, error) {
	res, err := e.Diff(r1, r2)
	if err != nil {
		return 0, err
	}
	return res.Distance, nil
}

// same reports whether a homologous pair is decided by shape alone.
func (e *Engine) same(p1, p2 *sptree.Prepared, v1, v2 *sptree.Node) bool {
	return e.shortcut && p1.Shape[v1.ID] == p2.Shape[v2.ID]
}

// memoIndex maps a homologous pair to its memo slot: the pair's class
// block plus (rank in T1) × (class size in T2) + (rank in T2).
func (e *Engine) memoIndex(p1, p2 *sptree.Prepared, v1, v2 *sptree.Node) int {
	s := v1.Spec.ID
	return e.blockOff[s] + int(p1.Rank[v1.ID])*int(p2.Size[s]) + int(p2.Rank[v2.ID])
}

// pairsOf returns the matched child index pairs of a decision from the
// engine's arena.
func (e *Engine) pairsOf(dec *decision) [][2]int32 {
	return e.pairArena[dec.off : dec.off+dec.n]
}

// lookup returns the memoized decision for a pair of the Result's
// trees, or nil if its Diff never computed it.
func (r *Result) lookup(v1, v2 *sptree.Node) *decision {
	e := r.eng
	if v1.Spec == nil || v1.Spec != v2.Spec {
		return nil
	}
	if e.same(r.p1, r.p2, v1, v2) {
		return &e.zero
	}
	mi := e.memoIndex(r.p1, r.p2, v1, v2)
	if e.memoGen[mi] != e.gen {
		return nil
	}
	return &e.memo[mi]
}

// check panics unless the Result belongs to the engine's latest Diff.
func (r *Result) check() {
	if r.gen != r.eng.gen {
		panic("core: Result used after its Engine ran another Diff; extract Mapping/Script before reusing the Engine")
	}
}

// Mapping returns the minimum-cost well-formed mapping as pairs of
// (T1 node, T2 node), including the root pair, in preorder of T1.
func (r *Result) Mapping() [][2]*sptree.Node {
	r.check()
	e := r.eng
	var out [][2]*sptree.Node
	var rec func(v1, v2 *sptree.Node)
	rec = func(v1, v2 *sptree.Node) {
		out = append(out, [2]*sptree.Node{v1, v2})
		if e.same(r.p1, r.p2, v1, v2) {
			for _, p := range samePairs(r.p1, r.p2, v1, v2) {
				rec(p[0], p[1])
			}
			return
		}
		for _, p := range e.pairsOf(r.lookup(v1, v2)) {
			rec(v1.Children[p[0]], v2.Children[p[1]])
		}
	}
	rec(r.r1.Tree, r.r2.Tree)
	return out
}

// samePairs builds the child pairing inside an equal-shape pair, which
// the engine decides without recording one: S and L children pair by
// position, P children by specification branch, F children by equal
// shape (the pre-pairing rule of matchCase).
func samePairs(p1, p2 *sptree.Prepared, v1, v2 *sptree.Node) [][2]*sptree.Node {
	out := make([][2]*sptree.Node, 0, len(v1.Children))
	taken := make([]bool, len(v2.Children))
	for i, c1 := range v1.Children {
		for j, c2 := range v2.Children {
			var match bool
			switch v1.Type {
			case sptree.S, sptree.L:
				match = i == j
			case sptree.P:
				match = c1.Spec == c2.Spec
			default:
				match = p1.Shape[c1.ID] == p2.Shape[c2.ID]
			}
			if match && !taken[j] {
				taken[j] = true
				out = append(out, [2]*sptree.Node{c1, c2})
				break
			}
		}
	}
	return out
}

// x1 and x2 return X(v) for nodes of the current T1 and T2.
func (e *Engine) x1(v *sptree.Node) float64 { return e.del.X(v, e.p1.Shape) }
func (e *Engine) x2(v *sptree.Node) float64 { return e.del.X(v, e.p2.Shape) }

// c computes γ(M(v1, v2)) for homologous nodes, memoized (Algorithm 4
// plus the L case of Algorithm 6). Equal shapes decide at cost 0: the
// identity mapping of two equal subtrees edits nothing.
func (e *Engine) c(v1, v2 *sptree.Node) *decision {
	if v1.Spec == nil || v1.Spec != v2.Spec {
		panic("core: c called on non-homologous nodes")
	}
	if e.same(e.p1, e.p2, v1, v2) {
		return &e.zero
	}
	mi := e.memoIndex(e.p1, e.p2, v1, v2)
	dec := &e.memo[mi]
	if e.memoGen[mi] == e.gen {
		return dec
	}
	e.work.Decisions++
	*dec = decision{}
	switch v1.Type {
	case sptree.Q:
		if e.leafPenalty != nil {
			dec.cost = e.leafPenalty(v1, v2)
		}

	case sptree.S:
		// Case 2: children of mapped S nodes are preserved pairwise.
		// Child decisions are forced first so the arena appends below
		// form one contiguous span.
		sum := 0.0
		for i := range v1.Children {
			sum += e.c(v1.Children[i], v2.Children[i]).cost
		}
		off := int32(len(e.pairArena))
		for i := range v1.Children {
			e.pairArena = append(e.pairArena, [2]int32{int32(i), int32(i)})
		}
		dec.cost, dec.off, dec.n = sum, off, int32(len(v1.Children))

	case sptree.P:
		e.parallelCase(v1, v2, dec)

	case sptree.F:
		e.matchCase(v1, v2, false, dec)

	case sptree.L:
		e.matchCase(v1, v2, true, dec)

	default:
		panic(fmt.Sprintf("core: unknown node type %s", v1.Type))
	}
	e.memoGen[mi] = e.gen
	return dec
}

// parallelCase handles P node pairs: Case 3a (single homologous
// children, possibly unstably matched) and Case 3b (children paired by
// specification branch, each pair kept only if cheaper than
// delete+insert). A pair mapped at cost 0 is kept without computing X:
// no alternative is cheaper.
func (e *Engine) parallelCase(v1, v2 *sptree.Node, dec *decision) {
	if len(v1.Children) == 1 && len(v2.Children) == 1 &&
		v1.Children[0].Spec == v2.Children[0].Spec {
		c1, c2 := v1.Children[0], v2.Children[0]
		mapped := e.c(c1, c2).cost
		swap := 0.0
		if mapped != 0 {
			swap = e.x1(c1) + e.x2(c2) + 2*e.w(v1.Spec, c1.Spec)
		}
		if mapped == 0 || mapped <= swap {
			dec.cost = mapped
			dec.off = int32(len(e.pairArena))
			dec.n = 1
			e.pairArena = append(e.pairArena, [2]int32{0, 0})
			return
		}
		dec.cost = swap
		dec.unstable = true
		return
	}
	// P children carry distinct specification branches, so branch
	// finds each child's partner by a scan, with no per-pair map.
	// Force child decisions first: the decide loop below then appends
	// matched pairs to the arena without interleaved recursion.
	for _, c2 := range v2.Children {
		if i := branch(v1, c2.Spec); i >= 0 {
			e.c(v1.Children[i], c2)
		}
	}
	off := int32(len(e.pairArena))
	for j, c2 := range v2.Children {
		i := branch(v1, c2.Spec)
		if i < 0 {
			dec.cost += e.x2(c2)
			continue
		}
		c1 := v1.Children[i]
		mapped := e.c(c1, c2).cost
		if mapped == 0 || mapped <= e.x1(c1)+e.x2(c2) {
			dec.cost += mapped
			e.pairArena = append(e.pairArena, [2]int32{int32(i), int32(j)})
			dec.n++
		} else {
			dec.cost += e.x1(c1) + e.x2(c2)
		}
	}
	dec.off = off
	// Unpaired T1 branches, in child order.
	for _, c1 := range v1.Children {
		if branch(v2, c1.Spec) < 0 {
			dec.cost += e.x1(c1)
		}
	}
}

// branch returns the index of the child of P node v on specification
// branch s, or -1 when v does not execute that branch.
func branch(v, s *sptree.Node) int {
	for i, c := range v.Children {
		if c.Spec == s {
			return i
		}
	}
	return -1
}

// matchCase handles F nodes (minimum-cost bipartite matching over
// copies, Case 4 / Fig. 9) and L nodes (minimum-cost non-crossing
// bipartite matching over ordered iterations, Algorithm 6).
//
// When e.prepair holds, an F pair first pairs its equal-shape copies,
// greedily in child order, and runs Bipartite on the residue only.
// This is X-Diff's equal-copy pairing (Wang, DeWitt & Cai, ICDE 2003)
// and it keeps the optimum. Let a and b be copies with equal shapes,
// so d(a, b) = 0, d(a, z) = d(b, z) for every z and X(a) = X(b), and
// take any optimal matching M of the copies:
//   - a and b both unmatched: adding (a, b) saves X(a) + X(b) ≥ 0;
//   - a matched to b′, b unmatched: swapping to (a, b) with b′
//     unmatched costs X(b′) instead of d(a, b′) + X(b), and
//     X(b′) ≤ d(b′, a) + X(a) by the triangle inequality, with
//     deletion as the distance to the empty tree (symmetrically when
//     b is matched and a is not);
//   - a matched to b′ and b matched to a′: swapping to (a, b) and
//     (a′, b′) costs d(a′, b′) ≤ d(a′, b) + d(b, b′) = d(a′, b) + d(a, b′).
//
// So some optimal matching pairs a with b; fixing that pair leaves the
// same problem on the remaining copies, and induction covers every
// pre-pair. Subtree distances are triangle-consistent for the models
// metricModel accepts; under any other model, or a leaf penalty, the
// pre-pair set is empty. L pairs never pre-pair: their matching is
// ordered.
//
// The pre-pairing and residue lists live in a frame on e.stack. Child
// decisions are forced before the shared staging rows are touched, and
// the recursion they cause only grows the stack past the frame, so the
// rows and lists are never clobbered.
func (e *Engine) matchCase(v1, v2 *sptree.Node, ordered bool, dec *decision) {
	m, n := len(v1.Children), len(v2.Children)
	base := len(e.stack)
	mate, taken := base, base+m // per T1 child: T2 mate; per T2 child: taken
	for i := 0; i < m+n; i++ {
		e.stack = append(e.stack, -1)
	}
	if e.prepair && !ordered {
		s1, s2 := e.p1.Shape, e.p2.Shape
		for i, c1 := range v1.Children {
			for j, c2 := range v2.Children {
				if e.stack[taken+j] < 0 && s1[c1.ID] == s2[c2.ID] {
					e.stack[mate+i], e.stack[taken+j] = int32(j), int32(i)
					break
				}
			}
		}
	}
	res1 := len(e.stack)
	for i := 0; i < m; i++ {
		if e.stack[mate+i] < 0 {
			e.stack = append(e.stack, int32(i))
		}
	}
	res2 := len(e.stack)
	for j := 0; j < n; j++ {
		if e.stack[taken+j] < 0 {
			e.stack = append(e.stack, int32(j))
		}
	}
	rm, rn := res2-res1, len(e.stack)-res2
	res1s, res2s := e.stack[res1:res2], e.stack[res2:]
	for _, a := range res1s {
		for _, b := range res2s {
			e.c(v1.Children[a], v2.Children[b])
		}
	}
	if cap(e.rows) < rm*rn {
		e.rows = make([]float64, rm*rn)
	}
	rows := e.rows[:rm*rn]
	for a, i := range res1s {
		for b, j := range res2s {
			rows[a*rn+b] = e.c(v1.Children[i], v2.Children[j]).cost
		}
	}
	if cap(e.delCost) < rm {
		e.delCost = make([]float64, rm)
	}
	dels := e.delCost[:rm]
	for a, i := range res1s {
		dels[a] = e.x1(v1.Children[i])
	}
	if cap(e.insCost) < rn {
		e.insCost = make([]float64, rn)
	}
	inss := e.insCost[:rn]
	for b, j := range res2s {
		inss[b] = e.x2(v2.Children[j])
	}
	e.work.Cells += int64(rm * rn)
	var res match.Result
	if ordered {
		res = e.ms.NonCrossing(rm, rn, rows, dels, inss)
	} else {
		res = e.ms.Bipartite(rm, rn, rows, dels, inss)
	}
	dec.cost = res.Cost
	dec.off = int32(len(e.pairArena))
	for i := 0; i < m; i++ {
		if j := e.stack[mate+i]; j >= 0 {
			e.pairArena = append(e.pairArena, [2]int32{int32(i), j})
		}
	}
	for _, p := range res.Pairs {
		e.pairArena = append(e.pairArena, [2]int32{res1s[p[0]], res2s[p[1]]})
	}
	dec.n = int32(len(e.pairArena)) - dec.off
	e.stack = e.stack[:base]
}

// w computes W_TG(a, b): the minimum cost of inserting (or deleting)
// an elementary subtree rooted at a child of specification node a that
// is distinct from the subtree rooted at specification node b
// (Section V-A, Eq. 2). a is the specification P node of an unstably
// matched pair; candidate subtrees range over the branch-free
// executions of a's other children. The memo is keyed by specification
// IDs and survives across Diff calls sharing a specification.
func (e *Engine) w(a, b *sptree.Node) float64 {
	wi := a.ID*e.specN + b.ID
	if v := e.wMemo[wi]; !math.IsNaN(v) {
		return v
	}
	best := inf
	for _, c := range a.Children {
		if c == b {
			continue
		}
		for _, l := range e.sp.AchievableLengths(c) {
			if cand := e.model.PathCost(l, a.Src, a.Dst); cand < best {
				best = cand
			}
		}
	}
	e.wMemo[wi] = best
	return best
}

// minSkeleton returns, for the unstable workaround, the specification
// child of a (other than b) and the branch-free execution length
// realizing W_TG(a, b).
func (e *Engine) minSkeleton(a, b *sptree.Node) (*sptree.Node, int) {
	best := inf
	var bestChild *sptree.Node
	bestLen := 0
	for _, c := range a.Children {
		if c == b {
			continue
		}
		for _, l := range e.sp.AchievableLengths(c) {
			if cand := e.model.PathCost(l, a.Src, a.Dst); cand < best {
				best = cand
				bestChild = c
				bestLen = l
			}
		}
	}
	return bestChild, bestLen
}

// DeletionCost computes X(v) of Algorithm 3 — the minimum cost of
// deleting the run subtree rooted at v — under the given cost model.
// Exposed for baselines and cross-validation oracles.
func DeletionCost(v *sptree.Node, m cost.Model) float64 {
	return newDeleter(m).X(v, ownShapes(v))
}

// ownShapes keys every node of T[v] by its own ID: the finest keying
// the deleter accepts, for one-off use on a subtree whose IDs are
// unique but need not be dense or current in any shape generation.
func ownShapes(v *sptree.Node) []int32 {
	maxID := 0
	v.Walk(func(n *sptree.Node) bool {
		if n.ID > maxID {
			maxID = n.ID
		}
		return true
	})
	shape := make([]int32, maxID+1)
	for i := range shape {
		shape[i] = int32(i)
	}
	return shape
}
