// Command provstore manages an on-disk provenance repository of
// SP-workflow specifications and their runs:
//
//	provstore -dir DIR import-spec NAME spec.xml
//	provstore -dir DIR gen-run NAME RUN [-seed N] [-target E]
//	provstore -dir DIR import-run NAME RUN run.xml
//	provstore -dir DIR import-dir NAME DIR [-workers N]
//	provstore -dir DIR export NAME OUT.tar
//	provstore -dir DIR snapshot [NAME]
//	provstore -dir DIR verify [NAME...]
//	provstore -dir DIR ls [NAME]
//	provstore -dir DIR put-version PARENT CHILD spec.xml
//	provstore -dir DIR evolve SPEC_A SPEC_B [-svg out.svg]
//	provstore -dir DIR diff NAME RUN1 RUN2 [-cost unit] [-script] [-across NAME2]
//	provstore -dir DIR matrix NAME [-cost unit]
//	provstore -dir DIR cluster NAME [-k 2] [-seed 1] [-cost unit] [-indexed|-exact]
//	provstore -dir DIR outliers NAME [-k 3] [-cost unit] [-indexed|-exact]
//	provstore -dir DIR nearest NAME RUN [-k 5] [-cost unit] [-indexed|-exact]
//
// DIR is a filesystem repository, the same layout provserved serves
// with its default -backend fs.
//
// "import-dir" bulk-imports every *.xml file of a directory as runs
// (named by filename) in one pass: parallel parse, one snapshot
// append, one ledger record. "export" writes a spec
// and all its runs as a tar archive that round-trips through
// import-dir or the service's POST /v1/specs/{spec}/runs:bulk endpoint.
// "snapshot" checkpoints each spec's run index when the ledger is
// ahead of it and migrates a repository written in the older layout
// (one XML file per run) to frames, reporting the segment's live and
// dead bytes.
// "verify" re-hashes every live snapshot frame against the Merkle
// provenance ledger and exits nonzero naming the first divergent
// batch if anything — a flipped byte, a rewritten record, a dropped
// ledger line — no longer matches the attested history.
//
// "matrix" prints the pairwise distance matrix over all stored runs of
// a specification together with a UPGMA dendrogram — the cohort view a
// scientist uses to see which executions behave alike. "cluster",
// "outliers" and "nearest" are the cohort analytics over the same
// cohort: k-medoids partitioning (each cluster reported through its
// medoid, the most representative execution), knn-distance outlier
// scores, and nearest-neighbor lookup for one run. All three load the
// cohort into one analysis.HybridCohort and ask its view, which makes
// the same dense-or-indexed choice as provserved: cohorts of 256+ runs
// answer through the triangle-pruning metric index instead of the
// dense O(n²) matrix (sampled k-medoids for cluster, no mean-all
// column for outliers, plus an "index:" tally line); -indexed and
// -exact force either path.
//
// provstore is the one-shot CLI over the repository; its serving
// counterpart is provserved, which keeps the same repository open
// behind an HTTP API with pooled diff engines and result caching.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/view"
	"repro/internal/wfrun"
)

// stdout and stderr are the command's output streams, swappable so
// the CLI tests can run subcommands in-process and read what a user
// would see.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

// exitErr unwinds a subcommand to run's recover with an exit code;
// fatal and usage raise it instead of calling os.Exit so tests get a
// return value, not a dead process.
type exitErr struct{ code int }

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole CLI as a function: parse flags, open the
// repository, dispatch the subcommand, return the exit code.
func run(args []string) (code int) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case exitErr:
			code = r.code
		default:
			panic(r)
		}
	}()
	fs := flag.NewFlagSet("provstore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "provstore", "repository directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	if len(args) == 0 {
		usage()
	}
	st, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	switch args[0] {
	case "import-spec":
		importSpec(st, args[1:])
	case "import-run":
		importRun(st, args[1:])
	case "import-dir":
		importDir(st, args[1:])
	case "export":
		export(st, args[1:])
	case "snapshot":
		snapshot(st, args[1:])
	case "verify":
		verify(st, args[1:])
	case "gen-run":
		genRun(st, args[1:])
	case "ls":
		list(st, args[1:])
	case "put-version":
		putVersion(st, args[1:])
	case "evolve":
		evolveCmd(st, args[1:])
	case "diff":
		diff(st, args[1:])
	case "matrix":
		matrix(st, args[1:])
	case "cluster":
		clusterCmd(st, args[1:])
	case "outliers":
		outliersCmd(st, args[1:])
	case "nearest":
		nearestCmd(st, args[1:])
	default:
		usage()
	}
	return 0
}

func usage() {
	fmt.Fprintln(stderr, "usage: provstore [-dir DIR] import-spec|import-run|import-dir|export|snapshot|verify|gen-run|ls|put-version|evolve|diff|matrix|cluster|outliers|nearest ...")
	panic(exitErr{2})
}

func fatal(err error) {
	fmt.Fprintln(stderr, "provstore:", err)
	panic(exitErr{1})
}

func importSpec(st *store.Store, args []string) {
	if len(args) != 2 {
		fatal(fmt.Errorf("import-spec NAME FILE"))
	}
	sp, err := cli.LoadSpec(args[1])
	if err != nil {
		fatal(err)
	}
	if err := st.SaveSpec(args[0], sp); err != nil {
		fatal(err)
	}
	stats := sp.Stats()
	fmt.Fprintf(stdout, "stored %s: |V|=%d |E|=%d forks=%d loops=%d\n",
		args[0], stats.V, stats.E, stats.Forks, stats.Loops)
}

func importRun(st *store.Store, args []string) {
	if len(args) != 3 {
		fatal(fmt.Errorf("import-run SPEC RUN FILE"))
	}
	sp, err := st.LoadSpec(args[0])
	if err != nil {
		fatal(err)
	}
	r, err := cli.LoadRun(args[2], sp)
	if err != nil {
		fatal(err)
	}
	if err := st.SaveRun(args[0], args[1], r); err != nil {
		fatal(err)
	}
	fmt.Fprintf(stdout, "stored %s/%s: %d nodes, %d edges\n", args[0], args[1], r.NumNodes(), r.NumEdges())
}

func importDir(st *store.Store, args []string) {
	fs := flag.NewFlagSet("import-dir", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "parallel parse workers (0 = all cores)")
	if len(args) < 2 {
		fatal(fmt.Errorf("import-dir SPEC DIR [flags]"))
	}
	if err := fs.Parse(args[2:]); err != nil {
		fatal(err)
	}
	stats, err := st.ImportDir(args[0], args[1], *workers)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(stdout, "imported %d runs into %s (%d nodes, %d edges)\n",
		len(stats.Imported), args[0], stats.Nodes, stats.Edges)
}

func export(st *store.Store, args []string) {
	if len(args) != 2 {
		fatal(fmt.Errorf("export SPEC OUT.tar (or - for stdout)"))
	}
	var out io.Writer = stdout
	if args[1] != "-" {
		f, err := os.Create(args[1])
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := st.ExportSpec(args[0], nil, out); err != nil {
		fatal(err)
	}
	if args[1] != "-" {
		runs, err := st.ListRuns(args[0])
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "exported %s (%d runs) to %s\n", args[0], len(runs), args[1])
	}
}

func snapshot(st *store.Store, args []string) {
	specs := args
	if len(specs) == 0 {
		var err error
		specs, err = st.ListSpecs()
		if err != nil {
			fatal(err)
		}
	}
	for _, name := range specs {
		stats, err := st.Snapshot(name)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "%s: %d runs snapshotted (%d live bytes, %d dead bytes)\n",
			name, stats.Runs, stats.LiveBytes, stats.DeadBytes)
	}
}

// verify re-hashes every live snapshot frame against the provenance
// ledger and validates each spec's hash chain. Any divergence exits
// nonzero, naming the first divergent batch.
func verify(st *store.Store, args []string) {
	report, err := st.VerifyLedger(args...)
	if err != nil {
		fatal(err)
	}
	// A ledger that cannot be parsed has no head; the report names its
	// first bad batch below.
	heads, root, err := st.LedgerHeads()
	if err != nil && report.OK() {
		fatal(err)
	}
	if err == nil {
		names := make([]string, 0, len(heads))
		for name := range heads {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "%s: %d batches, head %s\n", name, heads[name].Batches, heads[name].Head)
		}
		fmt.Fprintf(stdout, "repository root %s\n", root)
	}
	fmt.Fprintf(stdout, "verified %d specs, %d batches, %d runs\n", report.Specs, report.Batches, report.Runs)
	if !report.OK() {
		for _, issue := range report.Issues {
			fmt.Fprintln(stderr, "provstore: DIVERGENT", issue.String())
		}
		fmt.Fprintf(stderr, "provstore: first divergent batch: spec %s batch %d\n",
			report.Issues[0].Spec, report.Issues[0].Batch)
		panic(exitErr{1})
	}
	fmt.Fprintln(stdout, "ledger OK")
}

func genRun(st *store.Store, args []string) {
	fs := flag.NewFlagSet("gen-run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed")
	target := fs.Int("target", 0, "approximate run size in edges (0 = unconstrained)")
	if len(args) < 2 {
		fatal(fmt.Errorf("gen-run SPEC RUN [flags]"))
	}
	if err := fs.Parse(args[2:]); err != nil {
		fatal(err)
	}
	sp, err := st.LoadSpec(args[0])
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	var r *wfrun.Run
	if *target > 0 {
		r, err = gen.RunWithTargetEdges(sp, *target, 0.1, gen.DefaultRunParams(), rng)
	} else {
		r, err = gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	}
	if err != nil {
		fatal(err)
	}
	if err := st.SaveRun(args[0], args[1], r); err != nil {
		fatal(err)
	}
	fmt.Fprintf(stdout, "generated %s/%s: %d nodes, %d edges\n", args[0], args[1], r.NumNodes(), r.NumEdges())
}

func list(st *store.Store, args []string) {
	if len(args) == 0 {
		specs, err := st.ListSpecs()
		if err != nil {
			fatal(err)
		}
		for _, s := range specs {
			runs, err := st.ListRuns(s)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(stdout, "%s\t%d runs\n", s, len(runs))
		}
		return
	}
	runs, err := st.ListRuns(args[0])
	if err != nil {
		fatal(err)
	}
	for _, r := range runs {
		fmt.Fprintln(stdout, r)
	}
}

// putVersion registers a new specification version evolved from a
// stored parent: the spec is imported, the lineage link recorded, and
// the parent→child edit mapping computed.
func putVersion(st *store.Store, args []string) {
	if len(args) != 3 {
		fatal(fmt.Errorf("put-version PARENT CHILD FILE"))
	}
	sp, err := cli.LoadSpec(args[2])
	if err != nil {
		fatal(err)
	}
	if err := st.PutSpecVersion(args[0], args[1], sp); err != nil {
		fatal(err)
	}
	m, _, err := st.SpecMapping(args[0], args[1])
	if err != nil {
		fatal(err)
	}
	stats := m.Stats()
	fmt.Fprintf(stdout, "stored %s as version of %s: mapping cost %g, %d modules survive (%d renamed), %d inserted, %d deleted\n",
		args[1], args[0], m.Cost, stats.MappedModules, stats.RenamedModules,
		stats.InsertedModules, stats.DeletedModules)
}

// evolveCmd prints the spec-evolution mapping between two stored
// specification versions.
func evolveCmd(st *store.Store, args []string) {
	fs := flag.NewFlagSet("evolve", flag.ContinueOnError)
	svgOut := fs.String("svg", "", "write the side-by-side overlay SVG to this file")
	if len(args) < 2 {
		fatal(fmt.Errorf("evolve SPEC_A SPEC_B [flags]"))
	}
	if err := fs.Parse(args[2:]); err != nil {
		fatal(err)
	}
	m, linked, err := st.SpecMapping(args[0], args[1])
	if err != nil {
		fatal(err)
	}
	stats := m.Stats()
	link := "not lineage-linked (mapped directly)"
	if linked {
		link = "lineage-linked"
	}
	fmt.Fprintf(stdout, "%s -> %s (%s)\n", args[0], args[1], link)
	fmt.Fprintf(stdout, "mapping cost: %g\n", m.Cost)
	fmt.Fprintf(stdout, "nodes: %d -> %d (%d mapped)\n", stats.ANodes, stats.BNodes, stats.Mapped)
	fmt.Fprintf(stdout, "modules: %d mapped (%d renamed), %d deleted, %d inserted; %d combinators restructured\n",
		stats.MappedModules, stats.RenamedModules, stats.DeletedModules, stats.InsertedModules, stats.RetypedInternals)
	var renamed []string
	for a, b := range m.MappedModules() {
		if a.From != b.From || a.To != b.To {
			renamed = append(renamed, fmt.Sprintf("  renamed: %s -> %s", a, b))
		}
	}
	sort.Strings(renamed)
	for _, line := range renamed {
		fmt.Fprintln(stdout, line)
	}
	if *svgOut != "" {
		keptA := make(map[graph.Edge]bool)
		keptB := make(map[graph.Edge]bool)
		for a, b := range m.MappedModules() {
			keptA[a] = true
			keptB[b] = true
		}
		svg := view.SpecPairSVG(m.A, m.B, keptA, keptB, args[0], args[1],
			fmt.Sprintf("spec evolution cost %g", m.Cost))
		if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *svgOut)
	}
}

func diff(st *store.Store, args []string) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	costName := fs.String("cost", "unit", "cost model")
	script := fs.Bool("script", false, "print the edit script")
	across := fs.String("across", "", "second spec: RUN2 belongs to this lineage-linked version")
	if len(args) < 3 {
		fatal(fmt.Errorf("diff SPEC RUN1 RUN2 [flags]"))
	}
	if err := fs.Parse(args[3:]); err != nil {
		fatal(err)
	}
	model, err := cost.Parse(*costName)
	if err != nil {
		fatal(err)
	}
	if *across != "" {
		// Cheap pre-check, as the service does: reject unlinked pairs
		// before computing a mapping and projection just to discard them.
		linked, err := st.Linked(args[0], *across)
		if err != nil {
			fatal(err)
		}
		if !linked {
			fatal(fmt.Errorf("%s and %s are not lineage-linked; register the version with put-version first", args[0], *across))
		}
		res, _, err := st.CrossDiff(args[0], args[1], *across, args[2], model)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "cross-version distance %s/%s -> %s/%s: %g (%s cost)\n",
			args[0], args[1], *across, args[2], res.Distance, model.Name())
		fmt.Fprintf(stdout, "  run-diff distance (projected): %g\n", res.EngineDistance)
		fmt.Fprintf(stdout, "  dropped by evolution: %g (%d regions)\n", res.Projection.DroppedCost, res.Projection.DroppedRegions)
		fmt.Fprintf(stdout, "  inserted by evolution: %g (%d regions)\n", res.Projection.InsertedCost, res.Projection.InsertedRegions)
		fmt.Fprintf(stdout, "  spec mapping cost: %g\n", res.Mapping.Cost)
		return
	}
	r1, err := st.LoadRun(args[0], args[1])
	if err != nil {
		fatal(err)
	}
	r2, err := st.LoadRun(args[0], args[2])
	if err != nil {
		fatal(err)
	}
	d, err := view.New(r1, r2, model)
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(stdout, d.Summary())
	if *script {
		fmt.Fprintln(stdout, "\nedit script (with detected path replacements):")
		fmt.Fprint(stdout, view.RenderCompact(d.Script))
	}
}

func matrix(st *store.Store, args []string) {
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	costName := fs.String("cost", "unit", "cost model")
	if len(args) < 1 {
		fatal(fmt.Errorf("matrix SPEC [flags]"))
	}
	if err := fs.Parse(args[1:]); err != nil {
		fatal(err)
	}
	model, err := cost.Parse(*costName)
	if err != nil {
		fatal(err)
	}
	names, err := st.ListRuns(args[0])
	if err != nil {
		fatal(err)
	}
	if len(names) < 2 {
		fatal(fmt.Errorf("need at least two stored runs, have %d", len(names)))
	}
	mx, err := st.Cohort(args[0], names, model)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(stdout, mx)
	fmt.Fprintf(stdout, "medoid:  %s\n", names[mx.Medoid()])
	fmt.Fprintf(stdout, "outlier: %s\n\n", names[mx.Outlier()])
	fmt.Fprintln(stdout, "clustering:")
	fmt.Fprint(stdout, mx.Cluster().Render())
}

// cohortFlags registers the flags cluster, outliers and nearest share.
func cohortFlags(fs *flag.FlagSet) (costName *string, indexed, exact *bool) {
	return fs.String("cost", "unit", "cost model"),
		fs.Bool("indexed", false, "force the metric-index path"),
		fs.Bool("exact", false, "force the dense-matrix path")
}

// analyticsCohort is the one loader behind cluster, outliers and
// nearest: every stored run of the spec goes into a one-shot
// HybridCohort, which picks the dense matrix or the metric index by
// cohort size, as the server does, unless -exact or -indexed forces
// one. The view's query methods then make the matching call. A
// non-empty run must be stored; it is checked before any run loads.
func analyticsCohort(st *store.Store, specName, run, costName string, indexed, exact bool) (*analysis.HybridCohort, *analysis.CohortView) {
	if indexed && exact {
		fatal(fmt.Errorf("-indexed and -exact are mutually exclusive"))
	}
	model, err := cost.Parse(costName)
	if err != nil {
		fatal(err)
	}
	names, err := st.ListRuns(specName)
	if err != nil {
		fatal(err)
	}
	if len(names) < 2 {
		fatal(fmt.Errorf("need at least 2 stored runs, have %d", len(names)))
	}
	if i := sort.SearchStrings(names, run); run != "" && (i == len(names) || names[i] != run) {
		fatal(fmt.Errorf("unknown run %q of %q", run, specName))
	}
	runs := make([]*wfrun.Run, len(names))
	for i, n := range names {
		if runs[i], err = st.LoadRun(specName, n); err != nil {
			fatal(err)
		}
	}
	var opts analysis.HybridOptions
	switch {
	case exact:
		opts.IndexThreshold = -1
	case indexed:
		opts.IndexThreshold = 1
	}
	hc := analysis.NewHybridCohort(model, 0, opts)
	if err := hc.Reset(names, runs, analysis.Options{}); err != nil {
		fatal(err)
	}
	return hc, hc.View()
}

func clusterCmd(st *store.Store, args []string) {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	costName, indexed, exact := cohortFlags(fs)
	k := fs.Int("k", 2, "number of clusters")
	seed := fs.Int64("seed", 1, "initialization seed")
	if len(args) < 1 {
		fatal(fmt.Errorf("cluster SPEC [flags]"))
	}
	if err := fs.Parse(args[1:]); err != nil {
		fatal(err)
	}
	if err := cli.ValidateK("k", *k); err != nil {
		fatal(err)
	}
	hc, v := analyticsCohort(st, args[0], "", *costName, *indexed, *exact)
	cl, err := v.Cluster(context.Background(), *k, *seed)
	if err != nil {
		fatal(err)
	}
	if v.Indexed() {
		fmt.Fprintf(stdout, "sampled k-medoids over %d runs (k=%d, total distance %g):\n",
			v.Len(), cl.K, cl.Cost)
	} else {
		fmt.Fprintf(stdout, "k-medoids over %d runs (k=%d, total distance %g, silhouette %.3f):\n",
			v.Len(), cl.K, cl.Cost, cl.Silhouette)
	}
	for c := 0; c < cl.K; c++ {
		fmt.Fprintf(stdout, "  cluster %d  medoid %s\n", c, v.Label(cl.Medoids[c]))
		for _, i := range cl.Members(c) {
			marker := " "
			if i == cl.Medoids[c] {
				marker = "*"
			}
			fmt.Fprintf(stdout, "    %s %s\n", marker, v.Label(i))
		}
	}
	printIndexStats(hc, v)
}

func outliersCmd(st *store.Store, args []string) {
	fs := flag.NewFlagSet("outliers", flag.ContinueOnError)
	costName, indexed, exact := cohortFlags(fs)
	k := fs.Int("k", 3, "neighbors per score")
	if len(args) < 1 {
		fatal(fmt.Errorf("outliers SPEC [flags]"))
	}
	if err := fs.Parse(args[1:]); err != nil {
		fatal(err)
	}
	if err := cli.ValidateK("k", *k); err != nil {
		fatal(err)
	}
	hc, v := analyticsCohort(st, args[0], "", *costName, *indexed, *exact)
	scores, err := v.Outliers(*k)
	if err != nil {
		fatal(err)
	}
	// An indexed cohort leaves mean-all out: it would need every
	// pairwise diff.
	if v.Indexed() {
		fmt.Fprintf(stdout, "%-20s %10s\n", "run", "knn-score")
	} else {
		fmt.Fprintf(stdout, "%-20s %10s %10s\n", "run", "knn-score", "mean-all")
	}
	for _, s := range scores {
		fmt.Fprintf(stdout, "%-20s %10.3f", v.Label(s.Index), s.Score)
		if !v.Indexed() {
			fmt.Fprintf(stdout, " %10.3f", s.MeanAll)
		}
		fmt.Fprintln(stdout)
	}
	printIndexStats(hc, v)
}

func nearestCmd(st *store.Store, args []string) {
	fs := flag.NewFlagSet("nearest", flag.ContinueOnError)
	costName, indexed, exact := cohortFlags(fs)
	k := fs.Int("k", 5, "neighbors to report")
	if len(args) < 2 {
		fatal(fmt.Errorf("nearest SPEC RUN [flags]"))
	}
	if err := fs.Parse(args[2:]); err != nil {
		fatal(err)
	}
	if err := cli.ValidateK("k", *k); err != nil {
		fatal(err)
	}
	hc, v := analyticsCohort(st, args[0], args[1], *costName, *indexed, *exact)
	idx, _ := v.IndexOf(args[1])
	nn, err := v.Nearest(idx, *k)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(stdout, "nearest neighbors of %s/%s:\n", args[0], args[1])
	for _, n := range nn {
		fmt.Fprintf(stdout, "  %-20s %g\n", v.Label(n.Index), n.Distance)
	}
	printIndexStats(hc, v)
}

// printIndexStats reports, for an indexed cohort, how much exact
// differencing the index avoided, mirroring the server's /v1/stats
// metric_index counters.
func printIndexStats(hc *analysis.HybridCohort, v *analysis.CohortView) {
	exact, pruned := hc.DiffCalls(), hc.PrunedPairs()
	total := exact + pruned
	if !v.Indexed() || total == 0 {
		return
	}
	fmt.Fprintf(stdout, "index: %d exact diffs, %d pruned (%.1f%% of %d candidate pairs), %d landmarks\n",
		exact, pruned, 100*float64(pruned)/float64(total), total, v.Index.Landmarks())
}
