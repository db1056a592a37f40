// Package analysis builds on pairwise run differencing to support the
// paper's motivating workflow: a scientist executes an experiment many
// times with different parameter settings and wants to see which
// executions behave alike (Section I: "identify parameter settings and
// approaches which lead to good biological results"). It provides
// distance matrices over run cohorts, medoid selection,
// nearest-neighbor queries and average-linkage (UPGMA) hierarchical
// clustering with a text dendrogram.
package analysis

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/wfrun"
)

// fanOut resolves a differencing fan-out: the configured worker count
// (GOMAXPROCS when <= 0), capped at the number of shards the work
// splits into, and at least one.
func fanOut(workers, shards int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, shards))
}

// Matrix is a symmetric pairwise edit-distance matrix over a cohort of
// runs of the same specification.
type Matrix struct {
	Labels []string
	D      [][]float64
}

// Options tunes DistanceMatrixWith and the dense rebuilds of
// HybridCohort.Reset. The zero value means "all cores, no progress
// reporting, no cancellation".
type Options struct {
	// Workers caps the differencing fan-out; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after each pair is
	// differenced with the number of completed pairs and the total
	// pair count. Calls are serialized (never concurrent), but arrive
	// from worker goroutines under a lock: a callback that blocks
	// throttles the whole fan-out, so consumers doing I/O here must
	// bound it (the HTTP service uses per-write deadlines).
	Progress func(done, total int)
	// Context, when non-nil, aborts the fan-out early: once it is
	// cancelled no further pair is differenced and the call returns
	// an error wrapping the context error. The HTTP service
	// passes the request context so a client that disconnects (or a
	// repository wiped mid-stream) stops burning workers instead of
	// finishing a matrix nobody will read.
	Context context.Context
}

// DistanceMatrix computes all pairwise edit distances under the given
// cost model. Labels default to r0, r1, ... when names is nil.
func DistanceMatrix(runs []*wfrun.Run, names []string, m cost.Model) (*Matrix, error) {
	return DistanceMatrixWith(runs, names, m, Options{})
}

// DistanceMatrixWith is DistanceMatrix with explicit worker,
// progress-reporting and cancellation control. It runs the same
// row-sharded fan-out as a dense HybridCohort.Reset, with fresh
// engines.
func DistanceMatrixWith(runs []*wfrun.Run, names []string, m cost.Model, opts Options) (*Matrix, error) {
	n := len(runs)
	if n == 0 {
		return nil, fmt.Errorf("analysis: empty cohort")
	}
	labels := names
	if labels == nil {
		labels = make([]string, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("r%d", i)
		}
	}
	if len(labels) != n {
		return nil, fmt.Errorf("analysis: %d labels for %d runs", len(labels), n)
	}
	engines := make([]*core.Engine, fanOut(opts.Workers, n-1))
	for w := range engines {
		engines[w] = core.NewEngine(m)
	}
	d, err := pairwise(engines, runs, labels, opts, nil)
	if err != nil {
		return nil, err
	}
	return &Matrix{Labels: labels, D: d}, nil
}

// Medoid returns the index of the run with minimum total distance to
// the rest of the cohort — the "most typical" execution.
func (mx *Matrix) Medoid() int {
	best, bestSum := 0, math.Inf(1)
	for i := range mx.D {
		sum := 0.0
		for j := range mx.D[i] {
			sum += mx.D[i][j]
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return best
}

// Outlier returns the index of the run with maximum total distance to
// the rest of the cohort.
func (mx *Matrix) Outlier() int {
	worst, worstSum := 0, -1.0
	for i := range mx.D {
		sum := 0.0
		for j := range mx.D[i] {
			sum += mx.D[i][j]
		}
		if sum > worstSum {
			worst, worstSum = i, sum
		}
	}
	return worst
}

// Nearest returns the index and distance of the run closest to run i.
func (mx *Matrix) Nearest(i int) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for j := range mx.D[i] {
		if j != i && mx.D[i][j] < bestD {
			best, bestD = j, mx.D[i][j]
		}
	}
	return best, bestD
}

// String renders the matrix as an aligned table.
func (mx *Matrix) String() string {
	var b strings.Builder
	w := 8
	for _, l := range mx.Labels {
		if len(l) > w {
			w = len(l)
		}
	}
	fmt.Fprintf(&b, "%*s", w+1, "")
	for _, l := range mx.Labels {
		fmt.Fprintf(&b, "%*s", w+1, l)
	}
	b.WriteByte('\n')
	for i, row := range mx.D {
		fmt.Fprintf(&b, "%*s", w+1, mx.Labels[i])
		for _, v := range row {
			fmt.Fprintf(&b, "%*s", w+1, trimFloat(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// Dendrogram is a node of the UPGMA clustering tree: either a leaf
// (Run >= 0) or an internal merge of two subtrees at the given height.
type Dendrogram struct {
	Run         int // leaf index, or -1 for internal nodes
	Label       string
	Height      float64
	Left, Right *Dendrogram
	size        int
}

// Leaves returns the run indices under the node, left to right.
func (d *Dendrogram) Leaves() []int {
	if d.Run >= 0 {
		return []int{d.Run}
	}
	return append(d.Left.Leaves(), d.Right.Leaves()...)
}

// Cluster performs average-linkage (UPGMA) agglomerative clustering of
// the cohort and returns the dendrogram root.
func (mx *Matrix) Cluster() *Dendrogram {
	n := len(mx.D)
	active := make([]*Dendrogram, n)
	for i := range active {
		active[i] = &Dendrogram{Run: i, Label: mx.Labels[i], size: 1}
	}
	// dist holds the current inter-cluster distances.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = append([]float64(nil), mx.D[i]...)
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for merges := 0; merges < n-1; merges++ {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < len(active); i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < len(active); j++ {
				if !alive[j] {
					continue
				}
				if dist[i][j] < bd {
					bi, bj, bd = i, j, dist[i][j]
				}
			}
		}
		merged := &Dendrogram{
			Run:    -1,
			Height: bd,
			Left:   active[bi],
			Right:  active[bj],
			size:   active[bi].size + active[bj].size,
		}
		// UPGMA update: distance to the merged cluster is the
		// size-weighted average of distances to its parts.
		wi := float64(active[bi].size)
		wj := float64(active[bj].size)
		for k := range active {
			if !alive[k] || k == bi || k == bj {
				continue
			}
			nd := (wi*dist[bi][k] + wj*dist[bj][k]) / (wi + wj)
			dist[bi][k] = nd
			dist[k][bi] = nd
		}
		active[bi] = merged
		alive[bj] = false
	}
	for i, a := range alive {
		if a {
			return active[i]
		}
	}
	return nil
}

// Render draws the dendrogram as indented text, children sorted for
// determinism, with merge heights annotated.
func (d *Dendrogram) Render() string {
	var b strings.Builder
	var rec func(n *Dendrogram, depth int)
	rec = func(n *Dendrogram, depth int) {
		indent := strings.Repeat("  ", depth)
		if n.Run >= 0 {
			fmt.Fprintf(&b, "%s- %s\n", indent, n.Label)
			return
		}
		fmt.Fprintf(&b, "%s+ merged at distance %s\n", indent, trimFloat(n.Height))
		kids := []*Dendrogram{n.Left, n.Right}
		sort.Slice(kids, func(i, j int) bool {
			li, lj := kids[i].Leaves(), kids[j].Leaves()
			return li[0] < lj[0]
		})
		for _, k := range kids {
			rec(k, depth+1)
		}
	}
	rec(d, 0)
	return b.String()
}

// CutAt slices the dendrogram at a height threshold, returning the
// clusters (as run index sets) whose merge heights are all <= h.
func (d *Dendrogram) CutAt(h float64) [][]int {
	var out [][]int
	var rec func(n *Dendrogram)
	rec = func(n *Dendrogram) {
		if n.Run >= 0 || n.Height <= h {
			out = append(out, n.Leaves())
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(d)
	for _, c := range out {
		sort.Ints(c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
