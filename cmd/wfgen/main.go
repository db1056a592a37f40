// Command wfgen generates SP-workflow specifications and runs as XML:
//
//	wfgen spec -edges 100 -ratio 1 -forks 5 -loops 5 -o spec.xml
//	wfgen spec -catalog PA -o pa.xml
//	wfgen run -spec spec.xml -probp 0.95 -probf 0.5 -maxf 4 -probl 0.5 -maxl 4 -o run.xml
//	wfgen run -spec spec.xml -target 500 -o run.xml
//
// To drive a running service with generated traffic, use e2ebench
// (e2ebench/README.md), which also checks every answer.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	provdiff "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "spec":
		genSpec(os.Args[2:])
	case "run":
		genRun(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wfgen spec|run [flags]")
	os.Exit(2)
}

func genSpec(args []string) {
	fs := flag.NewFlagSet("spec", flag.ExitOnError)
	var (
		edges   = fs.Int("edges", 50, "number of specification edges")
		ratio   = fs.Float64("ratio", 1, "series/parallel composition ratio r")
		forks   = fs.Int("forks", 3, "number of fork subgraphs")
		loops   = fs.Int("loops", 1, "number of loop subgraphs")
		catalog = fs.String("catalog", "", "emit a Table I workflow (PA, EMBOSS, SAXPF, MB, PGAQ, BAIDD) instead")
		seed    = fs.Int64("seed", 1, "random seed")
		out     = fs.String("o", "", "output file (default stdout)")
		name    = fs.String("name", "", "specification name attribute")
	)
	must(fs.Parse(args))
	var sp *provdiff.Spec
	var err error
	if *catalog != "" {
		sp, err = provdiff.Catalog(*catalog)
		if *name == "" {
			*name = *catalog
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		sp, err = provdiff.RandomSpec(provdiff.SpecConfig{
			Edges: *edges, SeriesRatio: *ratio, Forks: *forks, Loops: *loops,
		}, rng)
	}
	must(err)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		must(err)
		defer f.Close()
		w = f
	}
	must(provdiff.EncodeSpec(w, sp, *name))
}

func genRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "specification XML file (required)")
		probp    = fs.Float64("probp", 0.95, "probability each parallel branch is taken")
		probf    = fs.Float64("probf", 0.5, "probability each fork copy is taken")
		maxf     = fs.Int("maxf", 4, "maximum fork copies")
		probl    = fs.Float64("probl", 0.5, "probability each loop iteration is taken")
		maxl     = fs.Int("maxl", 4, "maximum loop iterations")
		target   = fs.Int("target", 0, "if > 0, aim for this many run edges")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("o", "", "output file (default stdout)")
		name     = fs.String("name", "", "run name attribute")
	)
	must(fs.Parse(args))
	if *specPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*specPath)
	must(err)
	sp, err := provdiff.DecodeSpec(f)
	f.Close()
	must(err)
	rng := rand.New(rand.NewSource(*seed))
	params := provdiff.RunParams{ProbP: *probp, ProbF: *probf, MaxF: *maxf, ProbL: *probl, MaxL: *maxl}
	var r *provdiff.Run
	if *target > 0 {
		r, err = provdiff.RunWithTargetEdges(sp, *target, 0.1, params, rng)
	} else {
		r, err = provdiff.RandomRun(sp, params, rng)
	}
	must(err)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		must(err)
		defer f.Close()
		w = f
	}
	must(provdiff.EncodeRun(w, r, *name))
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfgen:", err)
		os.Exit(1)
	}
}
