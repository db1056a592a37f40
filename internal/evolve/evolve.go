// Package evolve computes edit mappings between SP-workflow
// specifications — the spec-evolution counterpart of the run
// differencing engine. Where package core compares two runs of one
// specification, evolve compares two *versions* of a specification
// whose SP-trees may differ structurally: modules renamed, inserted or
// deleted, series edges split, parallel branches added or duplicated,
// forks and loops introduced or dropped.
//
// The distance is a constrained tree edit distance over annotated
// SP-trees. For a pair of nodes (v1 of version A, v2 of version B) the
// recurrence considers
//
//   - matching v1 to v2 (free for identical modules / same combinator
//     type, Rename for modules whose terminals differ, Retype for a
//     series/parallel/fork/loop restructure), with the child forests
//     aligned by a minimum-cost non-crossing matching when both sides
//     are ordered (S, L) and a minimum-cost bipartite matching
//     otherwise (solved on the same match.Scratch primitives the run
//     engine uses);
//   - deleting the root of T_A[v1] (its children are promoted; one of
//     them continues against v2, the rest are deleted);
//   - inserting the root of T_B[v2] (symmetrically); and
//   - replacing the whole subtree (delete T_A[v1], insert T_B[v2]).
//
// The recurrence is symmetric in A and B and yields zero exactly on
// matching structure, so diff(s, s) = 0 with a total mapping. Like the
// run engine, the Engine memoizes decisions in flat slices indexed by
// the trees' dense preorder IDs (sptree.TreeIndex) with generation
// stamps, stores matched child pairs in a shared arena, and runs all
// matchings on one reusable match.Scratch — a batch of mappings
// performs O(1) steady-state allocation.
//
// The resulting SpecMapping aligns the surviving nodes of version A
// with their counterparts in version B. It is the bridge that lets the
// rest of the stack work across versions: ProjectRun pushes a run of A
// through the mapping into B's node space, and CrossDiff prices the
// parts the mapping cannot carry as inserts and deletes (see
// project.go).
package evolve

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/spec"
	"repro/internal/sptree"
)

// Costs prices the spec-level edit operations. All four costs must be
// positive: zero-cost operations would make "do nothing" mappings
// optimal and break the identity property diff(s, s) = 0 with a total
// mapping.
type Costs struct {
	// Rename is the cost of matching two modules (Q leaves) whose
	// terminal labels differ — a module renamed between versions.
	Rename float64
	// Retype is the cost of matching two internal nodes of different
	// types — a series/parallel/fork/loop restructure that preserves
	// the region's contents.
	Retype float64
	// Leaf is the cost of inserting or deleting one module edge.
	Leaf float64
	// Node is the cost of inserting or deleting one internal
	// (combinator) node.
	Node float64
}

// DefaultCosts is the cost model the store and service use: renaming a
// module (1) is cheaper than deleting and re-inserting it (2), and
// combinator nodes are half the weight of modules.
func DefaultCosts() Costs {
	return Costs{Rename: 1, Retype: 1, Leaf: 1, Node: 0.5}
}

func (c Costs) validate() error {
	if !(c.Rename > 0) || !(c.Retype > 0) || !(c.Leaf > 0) || !(c.Node > 0) {
		return fmt.Errorf("evolve: all costs must be positive, have %+v", c)
	}
	if math.IsInf(c.Rename, 0) || math.IsInf(c.Retype, 0) || math.IsInf(c.Leaf, 0) || math.IsInf(c.Node, 0) {
		return fmt.Errorf("evolve: costs must be finite, have %+v", c)
	}
	return nil
}

// SpecMapping aligns the surviving nodes of specification version A
// with their counterparts in version B. Pairs is injective in both
// directions and hierarchical: if (v1, v2) and (u1, u2) are pairs and
// u1 is a descendant of v1, then u2 is a descendant of v2.
type SpecMapping struct {
	A, B *spec.Spec
	// Cost is the edit distance realized by the mapping (for composed
	// mappings, an upper bound: the sum of the per-step costs).
	Cost float64
	// Pairs lists the matched (A node, B node) pairs in preorder of A.
	Pairs [][2]*sptree.Node

	aToB map[*sptree.Node]*sptree.Node
	bToA map[*sptree.Node]*sptree.Node
}

func newMapping(a, b *spec.Spec, cost float64, pairs [][2]*sptree.Node) *SpecMapping {
	m := &SpecMapping{
		A: a, B: b, Cost: cost, Pairs: pairs,
		aToB: make(map[*sptree.Node]*sptree.Node, len(pairs)),
		bToA: make(map[*sptree.Node]*sptree.Node, len(pairs)),
	}
	for _, p := range pairs {
		m.aToB[p[0]] = p[1]
		m.bToA[p[1]] = p[0]
	}
	return m
}

// AtoB returns the B node mapped to an A spec-tree node, or nil.
func (m *SpecMapping) AtoB(n *sptree.Node) *sptree.Node { return m.aToB[n] }

// BtoA returns the A node mapped to a B spec-tree node, or nil.
func (m *SpecMapping) BtoA(n *sptree.Node) *sptree.Node { return m.bToA[n] }

// Identity returns the total self-mapping of a specification at cost
// zero — the mapping CrossDiff degenerates to a plain run diff under.
func Identity(sp *spec.Spec) *SpecMapping {
	var pairs [][2]*sptree.Node
	sp.Tree.Walk(func(n *sptree.Node) bool {
		pairs = append(pairs, [2]*sptree.Node{n, n})
		return true
	})
	return newMapping(sp, sp, 0, pairs)
}

// Invert returns the reverse mapping B → A. Costs are symmetric, so
// the cost carries over unchanged.
func (m *SpecMapping) Invert() *SpecMapping {
	pairs := make([][2]*sptree.Node, len(m.Pairs))
	for i, p := range m.Pairs {
		pairs[i] = [2]*sptree.Node{p[1], p[0]}
	}
	return newMapping(m.B, m.A, m.Cost, pairs)
}

// Compose chains a mapping A → B with a mapping B → C into a mapping
// A → C: a node survives the composition iff it survives both steps.
// The composed cost is the sum of the step costs — an upper bound on
// the direct A → C distance.
func Compose(m1, m2 *SpecMapping) (*SpecMapping, error) {
	if m1 == nil || m2 == nil {
		return nil, fmt.Errorf("evolve: compose of nil mapping")
	}
	if m1.B != m2.A {
		return nil, fmt.Errorf("evolve: compose: first mapping's target is not second mapping's source")
	}
	var pairs [][2]*sptree.Node
	for _, p := range m1.Pairs {
		if c := m2.AtoB(p[1]); c != nil {
			pairs = append(pairs, [2]*sptree.Node{p[0], c})
		}
	}
	return newMapping(m1.A, m2.B, m1.Cost+m2.Cost, pairs), nil
}

// MappedModules returns the module-level alignment: for every matched
// pair of Q leaves, the A spec edge and the B spec edge it survives as.
func (m *SpecMapping) MappedModules() map[graph.Edge]graph.Edge {
	out := make(map[graph.Edge]graph.Edge)
	for _, p := range m.Pairs {
		if p[0].Type == sptree.Q && p[1].Type == sptree.Q {
			out[p[0].Edge] = p[1].Edge
		}
	}
	return out
}

// Validate checks the structural invariants every mapping must hold:
// nodes belong to their trees, the map is injective in both
// directions, only like kinds pair (leaves with leaves), and the cost
// is finite and non-negative. The fuzz target runs this on every
// mapping the engine produces.
func (m *SpecMapping) Validate() error {
	if m.A == nil || m.B == nil || m.A.Tree == nil || m.B.Tree == nil {
		return fmt.Errorf("evolve: mapping lacks specifications")
	}
	if math.IsNaN(m.Cost) || math.IsInf(m.Cost, 0) || m.Cost < 0 {
		return fmt.Errorf("evolve: mapping cost %g is not a finite non-negative number", m.Cost)
	}
	inA := make(map[*sptree.Node]bool)
	m.A.Tree.Walk(func(n *sptree.Node) bool { inA[n] = true; return true })
	inB := make(map[*sptree.Node]bool)
	m.B.Tree.Walk(func(n *sptree.Node) bool { inB[n] = true; return true })
	seenA := make(map[*sptree.Node]bool, len(m.Pairs))
	seenB := make(map[*sptree.Node]bool, len(m.Pairs))
	for _, p := range m.Pairs {
		if !inA[p[0]] {
			return fmt.Errorf("evolve: mapped node %s[%s..%s] is not in specification A", p[0].Type, p[0].Src, p[0].Dst)
		}
		if !inB[p[1]] {
			return fmt.Errorf("evolve: mapped node %s[%s..%s] is not in specification B", p[1].Type, p[1].Src, p[1].Dst)
		}
		if seenA[p[0]] || seenB[p[1]] {
			return fmt.Errorf("evolve: mapping is not injective at %s[%s..%s]", p[0].Type, p[0].Src, p[0].Dst)
		}
		seenA[p[0]] = true
		seenB[p[1]] = true
		if (p[0].Type == sptree.Q) != (p[1].Type == sptree.Q) {
			return fmt.Errorf("evolve: mapping pairs a module with a combinator node")
		}
	}
	return nil
}

// Stats summarizes a mapping for reports and the service payload.
type MappingStats struct {
	ANodes, BNodes   int // spec-tree sizes
	Mapped           int // matched node pairs
	MappedModules    int // matched Q-leaf pairs
	RenamedModules   int // matched Q pairs whose terminals differ
	DeletedModules   int // A modules with no counterpart
	InsertedModules  int // B modules with no counterpart
	RetypedInternals int // matched internal pairs of different types
}

// Stats computes the summary counters of the mapping.
func (m *SpecMapping) Stats() MappingStats {
	st := MappingStats{
		ANodes: m.A.Tree.CountNodes(),
		BNodes: m.B.Tree.CountNodes(),
		Mapped: len(m.Pairs),
	}
	for _, p := range m.Pairs {
		if p[0].Type == sptree.Q {
			st.MappedModules++
			if p[0].Src != p[1].Src || p[0].Dst != p[1].Dst {
				st.RenamedModules++
			}
		} else if p[0].Type != p[1].Type {
			st.RetypedInternals++
		}
	}
	st.DeletedModules = m.A.Tree.CountLeaves() - st.MappedModules
	st.InsertedModules = m.B.Tree.CountLeaves() - st.MappedModules
	return st
}

// --- engine ---------------------------------------------------------

// decision kinds. The zero value marks an unset memo slot, so the
// kinds start at 1.
const (
	kMatch   uint8 = iota + 1 // v1 matched to v2; child pairs at [off, off+n) in the arena
	kDelRoot                  // v1's root deleted; child arg continues against v2
	kInsRoot                  // v2's root inserted; v1 continues against child arg
	kReplace                  // delete T_A[v1], insert T_B[v2]
)

// decision is the memoized outcome for one (v1, v2) pair.
type decision struct {
	cost   float64
	kind   uint8
	arg    int32
	off, n int32
}

// Engine computes spec-to-spec edit mappings, reusing all interior
// state between calls exactly like the run-diff engine: flat memo
// slices stamped by generation, a shared arena of matched child-index
// pairs, and one match.Scratch for every bipartite and non-crossing
// matching. An Engine is not safe for concurrent use; SpecMappings it
// returns are fully extracted and stay valid indefinitely.
type Engine struct {
	costs Costs

	idx1, idx2 sptree.TreeIndex
	n2         int
	memo       []decision
	memoGen    []uint32
	gen        uint32
	del1, del2 []float64 // subtree deletion price per preorder ID
	pairs      [][2]int32

	rows, dels, inss []float64
	ms               match.Scratch
}

// NewEngine returns a reusable spec-differencing engine.
func NewEngine(c Costs) *Engine { return &Engine{costs: c} }

// SpecDiff computes the edit mapping between two specification
// versions under the given costs. Batch callers should construct one
// Engine and call its Diff instead.
func SpecDiff(a, b *spec.Spec, c Costs) (*SpecMapping, error) {
	return NewEngine(c).Diff(a, b)
}

// Diff computes the minimum-cost edit mapping between the SP-trees of
// two specification versions.
func (e *Engine) Diff(a, b *spec.Spec) (*SpecMapping, error) {
	if a == nil || b == nil || a.Tree == nil || b.Tree == nil {
		return nil, fmt.Errorf("evolve: nil specification")
	}
	if err := e.costs.validate(); err != nil {
		return nil, err
	}
	e.idx1.Rebuild(a.Tree)
	e.idx2.Rebuild(b.Tree)
	n1, n2 := e.idx1.Len(), e.idx2.Len()
	e.n2 = n2
	total := n1 * n2
	if cap(e.memo) < total {
		e.memo = make([]decision, total)
		e.memoGen = make([]uint32, total)
	} else {
		e.memo = e.memo[:total]
		e.memoGen = e.memoGen[:total]
	}
	e.gen++
	if e.gen == 0 { // uint32 wrap: flush every stamp explicitly
		for i := range e.memoGen {
			e.memoGen[i] = 0
		}
		e.gen = 1
	}
	e.pairs = e.pairs[:0]
	e.del1 = fillDel(e.del1[:0], e.idx1.Nodes, e.costs)
	e.del2 = fillDel(e.del2[:0], e.idx2.Nodes, e.costs)
	cost := e.d(a.Tree, b.Tree)
	return newMapping(a, b, cost, e.extract(a.Tree, b.Tree)), nil
}

// fillDel computes the subtree deletion price of every node. Nodes are
// in preorder, so iterating backwards sees children before parents.
func fillDel(out []float64, nodes []*sptree.Node, c Costs) []float64 {
	for range nodes {
		out = append(out, 0)
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		v := nodes[i]
		if v.Type == sptree.Q {
			out[i] = c.Leaf
			continue
		}
		sum := c.Node
		for _, ch := range v.Children {
			sum += out[ch.ID]
		}
		out[i] = sum
	}
	return out
}

func ordered(t sptree.Type) bool { return t == sptree.S || t == sptree.L }

// d computes (and memoizes) the edit distance between T_A[v1] and
// T_B[v2].
func (e *Engine) d(v1, v2 *sptree.Node) float64 {
	mi := v1.ID*e.n2 + v2.ID
	if e.memoGen[mi] == e.gen {
		return e.memo[mi].cost
	}
	// Force every child decision this pair can need before touching the
	// shared staging rows, so the rows are never live across recursion.
	if v1.Type != sptree.Q && v2.Type != sptree.Q {
		for _, c1 := range v1.Children {
			for _, c2 := range v2.Children {
				e.d(c1, c2)
			}
		}
	}
	if v1.Type != sptree.Q {
		for _, c1 := range v1.Children {
			e.d(c1, v2)
		}
	}
	if v2.Type != sptree.Q {
		for _, c2 := range v2.Children {
			e.d(v1, c2)
		}
	}

	// Candidate 1 (preferred on ties, so identical trees map totally):
	// match v1 to v2.
	dec := decision{cost: math.Inf(1), kind: kReplace}
	switch {
	case v1.Type == sptree.Q && v2.Type == sptree.Q:
		rel := 0.0
		if v1.Src != v2.Src || v1.Dst != v2.Dst {
			rel = e.costs.Rename
		}
		dec = decision{cost: rel, kind: kMatch, off: int32(len(e.pairs))}
	case v1.Type != sptree.Q && v2.Type != sptree.Q:
		rel := 0.0
		if v1.Type != v2.Type {
			rel = e.costs.Retype
		}
		forest, off, n := e.forest(v1, v2)
		dec = decision{cost: rel + forest, kind: kMatch, off: off, n: n}
	}

	// Candidate 2: delete v1's root, promote one child.
	if v1.Type != sptree.Q {
		for i, c1 := range v1.Children {
			cand := e.costs.Node + e.memo[c1.ID*e.n2+v2.ID].cost
			for _, o := range v1.Children {
				if o != c1 {
					cand += e.del1[o.ID]
				}
			}
			if cand < dec.cost {
				dec = decision{cost: cand, kind: kDelRoot, arg: int32(i)}
			}
		}
	}
	// Candidate 3: insert v2's root, descend into one child.
	if v2.Type != sptree.Q {
		for j, c2 := range v2.Children {
			cand := e.costs.Node + e.memo[v1.ID*e.n2+c2.ID].cost
			for _, o := range v2.Children {
				if o != c2 {
					cand += e.del2[o.ID]
				}
			}
			if cand < dec.cost {
				dec = decision{cost: cand, kind: kInsRoot, arg: int32(j)}
			}
		}
	}
	// Candidate 4: replace the whole subtree.
	if cand := e.del1[v1.ID] + e.del2[v2.ID]; cand < dec.cost {
		dec = decision{cost: cand, kind: kReplace}
	}

	e.memo[mi] = dec
	e.memoGen[mi] = e.gen
	return dec.cost
}

// forest aligns the child forests of two internal nodes: non-crossing
// when both parents are ordered (S, L), bipartite otherwise. All child
// decisions are already memoized; matched index pairs are appended to
// the shared arena.
func (e *Engine) forest(v1, v2 *sptree.Node) (cost float64, off, n int32) {
	m, nn := len(v1.Children), len(v2.Children)
	if cap(e.rows) < m*nn {
		e.rows = make([]float64, m*nn)
	}
	rows := e.rows[:m*nn]
	for i, c1 := range v1.Children {
		base := c1.ID * e.n2
		for j, c2 := range v2.Children {
			rows[i*nn+j] = e.memo[base+c2.ID].cost
		}
	}
	if cap(e.dels) < m {
		e.dels = make([]float64, m)
	}
	dels := e.dels[:m]
	for i, c1 := range v1.Children {
		dels[i] = e.del1[c1.ID]
	}
	if cap(e.inss) < nn {
		e.inss = make([]float64, nn)
	}
	inss := e.inss[:nn]
	for j, c2 := range v2.Children {
		inss[j] = e.del2[c2.ID]
	}
	var res match.Result
	if ordered(v1.Type) && ordered(v2.Type) {
		res = e.ms.NonCrossing(m, nn, rows, dels, inss)
	} else {
		res = e.ms.Bipartite(m, nn, rows, dels, inss)
	}
	off = int32(len(e.pairs))
	for _, p := range res.Pairs {
		e.pairs = append(e.pairs, [2]int32{int32(p[0]), int32(p[1])})
	}
	return res.Cost, off, int32(len(res.Pairs))
}

// extract reads the matched pairs off the memoized decisions of the
// last Diff, in preorder of A.
func (e *Engine) extract(r1, r2 *sptree.Node) [][2]*sptree.Node {
	var out [][2]*sptree.Node
	var rec func(v1, v2 *sptree.Node)
	rec = func(v1, v2 *sptree.Node) {
		dec := &e.memo[v1.ID*e.n2+v2.ID]
		switch dec.kind {
		case kMatch:
			out = append(out, [2]*sptree.Node{v1, v2})
			for _, p := range e.pairs[dec.off : dec.off+dec.n] {
				rec(v1.Children[p[0]], v2.Children[p[1]])
			}
		case kDelRoot:
			rec(v1.Children[dec.arg], v2)
		case kInsRoot:
			rec(v1, v2.Children[dec.arg])
		case kReplace:
			// Nothing survives.
		}
	}
	rec(r1, r2)
	return out
}
