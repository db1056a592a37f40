package metricindex

// boundSlack is the relative slack subtracted from every lower bound
// before it is compared against an exact distance. The engine computes
// distances in floating point, so a mathematically tight triangle
// bound can exceed the exact distance by a few ulps; slacking the
// bound keeps pruning strictly conservative, preserving byte-identity
// with the exhaustive oracle, at the cost of a vanishing number of
// extra exact diffs.
const boundSlack = 1e-9

// loosen applies the float-safety slack to a lower bound.
func loosen(b float64) float64 {
	b -= boundSlack * (1 + b)
	if b < 0 {
		return 0
	}
	return b
}

// Cohort is an immutable query view over one published generation of
// an Index: the receiver cluster.Indexed* queries run against. Reads
// (Len, Labels, Label, IndexOf, Bound, Refine) touch only the captured state
// and are safe from any number of goroutines; Distance serializes on
// the owning index's compute lock and feeds its exact/pruned counters.
type Cohort struct {
	ix *Index
	st *state
}

// Len returns the number of runs in the view.
func (c *Cohort) Len() int { return len(c.st.labels) }

// Labels returns a copy of the run names in index order.
func (c *Cohort) Labels() []string { return append([]string(nil), c.st.labels...) }

// Label returns the name of run i.
func (c *Cohort) Label(i int) string { return c.st.labels[i] }

// IndexOf resolves a run name to its position in the view.
func (c *Cohort) IndexOf(name string) (int, bool) {
	i, ok := c.st.index[name]
	return i, ok
}

// Landmarks reports how many landmark anchors the view carries.
func (c *Cohort) Landmarks() int { return len(c.st.anchors) }

// Bound returns a lower bound on the exact distance between runs i
// and j: the best of the landmark triangle bound
// max_m |d(i,L_m) - d(j,L_m)| and the histogram bound rate·L1(h_i,h_j),
// slacked for float safety. Never above Distance(i, j).
func (c *Cohort) Bound(i, j int) float64 {
	if i == j {
		return 0
	}
	ri, rj := c.st.lm[i], c.st.lm[j]
	b := 0.0
	for m := range ri {
		d := ri[m] - rj[m]
		if d < 0 {
			d = -d
		}
		if d > b {
			b = d
		}
	}
	if c.st.rate > 0 {
		b = max(b, c.st.rate*c.st.tree.leafL1(c.st.counts[i], c.st.counts[j]))
	}
	return loosen(b)
}

// Refine returns a sharper lower bound on the exact distance between
// runs i and j: the best of Bound and the op-count bound μ·(N⁺ + N⁻)
// (see bound.go), slacked alike. It costs one pass over the
// specification tree and allocates nothing, so queries call it only
// for the candidates that reach the front of their search. Never
// below Bound(i, j) nor above Distance(i, j); symmetric.
func (c *Cohort) Refine(i, j int) float64 {
	b := c.Bound(i, j)
	if i == j || c.st.opCost == 0 {
		return b
	}
	return max(b, loosen(c.st.opCost*float64(c.st.tree.opCount(c.st.counts[i], c.st.counts[j]))))
}

// Distance returns the exact edit distance between runs i and j via
// one counted engine diff (0 immediately when i == j). The pair is
// diffed in ascending index order — the convention every dense-matrix
// builder uses — because the engine's floating-point summation order
// can differ by an ulp between d(a,b) and d(b,a), and byte-identity
// with the exhaustive path requires the same orientation.
func (c *Cohort) Distance(i, j int) (float64, error) {
	if i == j {
		return 0, nil
	}
	if i > j {
		i, j = j, i
	}
	return c.ix.exactDistance(c.st.runs[i], c.st.runs[j])
}

// Pruned records n candidate pairs eliminated without an exact diff on
// the owning index's counters.
func (c *Cohort) Pruned(n int64) { c.ix.pruned.Add(n) }
