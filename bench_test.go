package provdiff

// One benchmark per table/figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md.
// The full sweeps (all sizes, paper-scale samples) live in
// cmd/experiments; these benches pin one representative point per
// figure so `go test -bench=.` tracks the performance of every
// experiment code path.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/match"
	"repro/internal/spec"
	"repro/internal/spgraph"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// BenchmarkTable1 regenerates Table I (catalog construction and
// annotated-tree building for all six real workflows).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// fig11Pair pregenerates a pair of runs of the named workflow with
// the given total edge count.
func fig11Pair(b *testing.B, name string, total int) (*wfrun.Run, *wfrun.Run) {
	b.Helper()
	sp, err := gen.Catalog(name)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	r1, err := gen.RunWithTargetEdges(sp, total/2, 0.1, gen.DefaultRunParams(), rng)
	if err != nil {
		b.Fatal(err)
	}
	r2, err := gen.RunWithTargetEdges(sp, total/2, 0.1, gen.DefaultRunParams(), rng)
	if err != nil {
		b.Fatal(err)
	}
	return r1, r2
}

// reportWork reports work counters per op; totals maps each counter's
// unit to its total over the b.N ops.
func reportWork(b *testing.B, totals map[string]int64) {
	for unit, total := range totals {
		b.ReportMetric(float64(total)/float64(b.N), unit)
	}
}

// engineWork names an engine's work counters for reportWork.
func engineWork(w core.Work) map[string]int64 {
	return map[string]int64{"decisions/op": w.Decisions, "cells/op": w.Cells, "solves/op": w.Solves}
}

// workSince returns the work an engine did between two readings.
func workSince(before, after core.Work) core.Work {
	return core.Work{
		Decisions: after.Decisions - before.Decisions,
		Cells:     after.Cells - before.Cells,
		Solves:    after.Solves - before.Solves,
	}
}

// BenchmarkFig11 differences runs of each real workflow at a
// representative size (Fig. 11, unit cost), with a fresh engine per
// diff as core.Distance does.
func BenchmarkFig11(b *testing.B) {
	for _, name := range gen.CatalogNames {
		for _, total := range []int{200, 600} {
			b.Run(fmt.Sprintf("%s/edges=%d", name, total), func(b *testing.B) {
				r1, r2 := fig11Pair(b, name, total)
				var work core.Work
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng := core.NewEngine(cost.Unit{})
					if _, err := eng.Distance(r1, r2); err != nil {
						b.Fatal(err)
					}
					w := eng.Work()
					work.Decisions += w.Decisions
					work.Cells += w.Cells
					work.Solves += w.Solves
				}
				reportWork(b, engineWork(work))
			})
		}
	}
}

// fig12Pair builds a fork/loop-free random spec of the given ratio
// and a pair of probP=0.95 runs (Figs. 12/13 workload).
func fig12Pair(b *testing.B, ratio float64, edges int) (*wfrun.Run, *wfrun.Run) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	sp, err := gen.RandomSpec(gen.SpecConfig{Edges: edges, SeriesRatio: ratio}, rng)
	if err != nil {
		b.Fatal(err)
	}
	params := gen.RunParams{ProbP: 0.95, MaxF: 1, MaxL: 1}
	r1, err := gen.RandomRun(sp, params, rng)
	if err != nil {
		b.Fatal(err)
	}
	r2, err := gen.RandomRun(sp, params, rng)
	if err != nil {
		b.Fatal(err)
	}
	return r1, r2
}

// BenchmarkFig12SeriesVsParallel pins one point per ratio curve of
// Fig. 12 (the paper's finding: series-heavy is slowest because the
// S-node deletion DP dominates).
func BenchmarkFig12SeriesVsParallel(b *testing.B) {
	for _, tc := range []struct {
		name  string
		ratio float64
	}{
		{"r=3", 3},
		{"r=1", 1},
		{"r=1over3", 1.0 / 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r1, r2 := fig12Pair(b, tc.ratio, 300)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Distance(r1, r2, cost.Unit{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fig14Pair builds the Fig. 14/15 workload: 100-edge spec, ratio 0.5,
// 5 forks + 5 loops, probP=1, maxF=maxL=20.
func fig14Pair(b *testing.B, aFork, bFork bool, prob float64) (*wfrun.Run, *wfrun.Run) {
	b.Helper()
	rng := rand.New(rand.NewSource(21))
	sp, err := gen.RandomSpec(gen.SpecConfig{Edges: 100, SeriesRatio: 0.5, Forks: 5, Loops: 5}, rng)
	if err != nil {
		b.Fatal(err)
	}
	mk := func(fork bool) *wfrun.Run {
		p := gen.RunParams{ProbP: 1, MaxF: 20, MaxL: 20}
		if fork {
			p.ProbF = prob
		} else {
			p.ProbL = prob
		}
		r, err := gen.RandomRun(sp, p, rng)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	return mk(aFork), mk(bFork)
}

// BenchmarkFig14ForkVsLoop pins the three curves of Fig. 14 at
// probability 0.5 (fork-fork needs Hungarian matching, loop-loop the
// cheaper non-crossing DP).
func BenchmarkFig14ForkVsLoop(b *testing.B) {
	for _, tc := range []struct {
		name         string
		aFork, bFork bool
	}{
		{"fork_vs_fork", true, true},
		{"fork_vs_loop", true, false},
		{"loop_vs_loop", false, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r1, r2 := fig14Pair(b, tc.aFork, tc.bFork, 0.5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Distance(r1, r2, cost.Unit{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16CostModels pins the Fig. 16 loop body: an ε-optimal
// diff plus script extraction and re-pricing under both extremes.
func BenchmarkFig16CostModels(b *testing.B) {
	sp, err := gen.Fig17bSpec(nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	params := gen.RunParams{ProbP: 0.5, ProbF: 1, MaxF: 5, MaxL: 1}
	r1, err := gen.RandomRun(sp, params, rng)
	if err != nil {
		b.Fatal(err)
	}
	r2, err := gen.RandomRun(sp, params, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Diff(r1, r2, cost.Power{Epsilon: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		script, _, err := res.Script()
		if err != nil {
			b.Fatal(err)
		}
		_ = core.EvaluateScript(script, cost.Unit{})
		_ = core.EvaluateScript(script, cost.Length{})
	}
}

// BenchmarkScriptExtraction isolates mapping-to-script assembly
// (Lemma 5.1 bookkeeping) from distance computation.
func BenchmarkScriptExtraction(b *testing.B) {
	r1, r2 := fig11Pair(b, "PA", 400)
	res, err := core.Diff(r1, r2, cost.Unit{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := res.Script(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompose measures SP recognition / canonical tree
// decomposition (Valdes-Tarjan-Lawler reduction) on a large run.
func BenchmarkDecompose(b *testing.B) {
	r1, _ := fig11Pair(b, "PGAQ", 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spgraph.Decompose(r1.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerive measures f″ (Algorithms 2 and 5): annotated-tree
// derivation from a bare run graph.
func BenchmarkDerive(b *testing.B) {
	sp, err := gen.Catalog("PA")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r, err := gen.RunWithTargetEdges(sp, 500, 0.1, gen.DefaultRunParams(), rng)
	if err != nil {
		b.Fatal(err)
	}
	refs := r.EdgeRefs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wfrun.Derive(sp, r.Graph, refs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRun measures a sync import's parse: one run XML
// document to an annotated run (token stream, run graph, checks, SP
// reduction, f″), cycling through 64 PA documents drawn with the
// default run parameters, the size the e2ebench workloads import.
func BenchmarkDecodeRun(b *testing.B) {
	sp, err := gen.Catalog("PA")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	docs := make([][]byte, 64)
	for i := range docs {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wfxml.EncodeRun(&buf, r, fmt.Sprintf("r%02d", i)); err != nil {
			b.Fatal(err)
		}
		docs[i] = buf.Bytes()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wfxml.DecodeRun(bytes.NewReader(docs[i%len(docs)]), sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeFrame measures a warm start's per-run cost: one
// stored codec frame decoded back to an annotated run (graph, implicit
// edges, tree aligned to the specification), over the 64 documents of
// BenchmarkDecodeRun parsed and encoded as frames.
func BenchmarkDecodeFrame(b *testing.B) {
	sp, err := gen.Catalog("PA")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	frames := make([][]byte, 64)
	for i := range frames {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wfxml.EncodeRun(&buf, r, fmt.Sprintf("r%02d", i)); err != nil {
			b.Fatal(err)
		}
		parsed, err := wfxml.DecodeRun(&buf, sp)
		if err != nil {
			b.Fatal(err)
		}
		if frames[i], err = codec.EncodeRun(parsed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeRun(frames[i%len(frames)], sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchingAblation compares the two matching primitives at
// F/L nodes directly: O(n³) Hungarian vs O(n²) non-crossing DP — the
// reason fork-heavy differencing dominates Fig. 14.
func BenchmarkMatchingAblation(b *testing.B) {
	const n = 60
	rng := rand.New(rand.NewSource(3))
	costs := make([][]float64, n)
	for i := range costs {
		costs[i] = make([]float64, n)
		for j := range costs[i] {
			costs[i][j] = float64(rng.Intn(100))
		}
	}
	pair := func(i, j int) float64 { return costs[i][j] }
	del := func(i int) float64 { return 50 }
	ins := func(j int) float64 { return 50 }
	b.Run("hungarian", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			match.Bipartite(n, n, pair, del, ins)
		}
	})
	b.Run("noncrossing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			match.NonCrossing(n, n, pair, del, ins)
		}
	})
	// Flat-row Scratch forms: what the diff Engine threads through
	// every F/L node — same algorithms, zero steady-state allocation.
	flat := make([]float64, n*n)
	for i := range costs {
		copy(flat[i*n:], costs[i])
	}
	dels := make([]float64, n)
	inss := make([]float64, n)
	for i := range dels {
		dels[i], inss[i] = 50, 50
	}
	b.Run("hungarian_scratch", func(b *testing.B) {
		b.ReportAllocs()
		var s match.Scratch
		for i := 0; i < b.N; i++ {
			s.Bipartite(n, n, flat, dels, inss)
		}
	})
	b.Run("noncrossing_scratch", func(b *testing.B) {
		b.ReportAllocs()
		var s match.Scratch
		for i := 0; i < b.N; i++ {
			s.NonCrossing(n, n, flat, dels, inss)
		}
	})
}

// BenchmarkSpecConstruction measures Algorithm 1 end to end on random
// specifications with annotations.
func BenchmarkSpecConstruction(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	cfgs := make([]gen.SpecConfig, 0, 8)
	for i := 0; i < 8; i++ {
		cfgs = append(cfgs, gen.SpecConfig{Edges: 200, SeriesRatio: 1, Forks: 5, Loops: 3})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.RandomSpec(cfgs[i%len(cfgs)], rng); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = spec.Stats{} // keep the spec import tied to the bench build

// BenchmarkDistanceMatrix measures the concurrent cohort matrix (the
// paper's motivating many-runs comparison) over ten PA runs.
func BenchmarkDistanceMatrix(b *testing.B) {
	sp, err := gen.Catalog("PA")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	runs := make([]*wfrun.Run, 10)
	for i := range runs {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			b.Fatal(err)
		}
		runs[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.DistanceMatrix(runs, nil, cost.Unit{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReuse contrasts a fresh differ per call with one
// reused Engine over the same pair: the engine amortizes every memo
// table, matcher scratch and deletion DP buffer across the batch.
func BenchmarkEngineReuse(b *testing.B) {
	r1, r2 := fig11Pair(b, "PA", 400)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Distance(r1, r2, cost.Unit{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		eng := core.NewEngine(cost.Unit{})
		// One warm-up call grows the engine's tables, so allocs/op
		// counts the steady state and does not depend on b.N.
		if _, err := eng.Distance(r1, r2); err != nil {
			b.Fatal(err)
		}
		before := eng.Work()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Distance(r1, r2); err != nil {
				b.Fatal(err)
			}
		}
		reportWork(b, engineWork(workSince(before, eng.Work())))
	})
}

// BenchmarkCohortRow128 is the cohort shape: one engine differences a
// query run against 128 default-parameter PA runs, the row a dense
// cohort Add or a metric-index query pays for. One warm-up row runs
// before the timer, so allocs/op is the steady state.
func BenchmarkCohortRow128(b *testing.B) {
	query, members := cohort128(b)
	eng := core.NewEngine(cost.Unit{})
	row := func() {
		for _, r := range members {
			if _, err := eng.Distance(query, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	row()
	before := eng.Work()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row()
	}
	reportWork(b, engineWork(workSince(before, eng.Work())))
}

// cohort128 draws a query run and 128 cohort members, all
// default-parameter PA runs from seed 1.
func cohort128(b *testing.B) (*wfrun.Run, []*wfrun.Run) {
	b.Helper()
	sp, err := gen.Catalog("PA")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	runs := make([]*wfrun.Run, 129)
	for i := range runs {
		if runs[i], err = gen.RandomRun(sp, gen.DefaultRunParams(), rng); err != nil {
			b.Fatal(err)
		}
	}
	return runs[0], runs[1:]
}

// BenchmarkDenseAnalytics128 runs the three dense cohort kernels over
// the unit-cost matrix of BenchmarkCohortRow128's 128 members, the
// work a dense cohort's /nearest (k=5), /outliers (k=3) and /cluster
// (k=2, seed 1) do after their diffs. The matrix is built before the
// timer. kmedoids reports its SWAP rounds per op.
func BenchmarkDenseAnalytics128(b *testing.B) {
	_, members := cohort128(b)
	mx, err := analysis.DistanceMatrix(members, nil, cost.Unit{})
	if err != nil {
		b.Fatal(err)
	}
	d := mx.D
	b.Run("nearest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Nearest(d, i%d.Len(), 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("outliers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Outliers(d, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kmedoids", func(b *testing.B) {
		b.ReportAllocs()
		var rounds int64
		for i := 0; i < b.N; i++ {
			cl, err := cluster.KMedoids(d, 2, 1)
			if err != nil {
				b.Fatal(err)
			}
			rounds += int64(cl.Iterations)
		}
		reportWork(b, map[string]int64{"rounds/op": rounds})
	})
}
