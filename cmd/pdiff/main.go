// Command pdiff computes the difference between two runs of the same
// SP-workflow specification:
//
//	pdiff -spec spec.xml -from run1.xml -to run2.xml [-cost unit|length|power:EPS]
//	      [-script] [-clusters DEPTH] [-html out.html] [-across spec2.xml]
//
// It prints the edit distance, and optionally the minimum-cost edit
// script, the composite-module change rollup, and a standalone HTML
// visualization.
//
// With -across, the two runs belong to different *versions* of the
// workflow: -from runs under -spec, -to runs under -across. pdiff
// computes the spec-evolution mapping between the versions, projects
// the source run into the new version's node space, and reports the
// cross-version distance split into data-driven change (the run diff
// of the projection) and spec-forced change (regions the evolution
// dropped or inserted).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/cost"
	"repro/internal/evolve"
	"repro/internal/spec"
	"repro/internal/view"
	"repro/internal/wfrun"
)

// stdout and stderr are swappable so the CLI tests can run the command
// in-process and read what a user would see.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

// exitErr unwinds to run's recover with an exit code; fatal raises it
// instead of calling os.Exit so tests get a return value.
type exitErr struct{ code int }

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command as a function: parse flags, load the
// documents, print the diff, return the exit code.
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
	fs := flag.NewFlagSet("pdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath   = fs.String("spec", "", "specification XML file (required)")
		fromPath   = fs.String("from", "", "source run XML file (required)")
		toPath     = fs.String("to", "", "target run XML file (required)")
		costName   = fs.String("cost", "unit", "cost model: unit, length, or power:EPS")
		script     = fs.Bool("script", false, "print the minimum-cost edit script")
		clusters   = fs.Int("clusters", -1, "print the composite-module rollup at this depth")
		htmlOut    = fs.String("html", "", "write an HTML visualization to this file")
		acrossPath = fs.String("across", "", "evolved specification XML: -to is a run of this version")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specPath == "" || *fromPath == "" || *toPath == "" {
		fs.Usage()
		return 2
	}
	model, err := cost.Parse(*costName)
	if err != nil {
		fatal(err)
	}
	sp, err := cli.LoadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	r1, err := cli.LoadRun(*fromPath, sp)
	if err != nil {
		fatal(fmt.Errorf("loading %s: %w", *fromPath, err))
	}
	if *acrossPath != "" {
		crossDiff(sp, r1, *acrossPath, *toPath, model)
		return 0
	}
	r2, err := cli.LoadRun(*toPath, sp)
	if err != nil {
		fatal(fmt.Errorf("loading %s: %w", *toPath, err))
	}
	d, err := view.New(r1, r2, model)
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(stdout, d.Summary())
	if *script {
		fmt.Fprintln(stdout, "\nedit script:")
		fmt.Fprint(stdout, d.Script.String())
	}
	if *clusters >= 0 {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, d.ClusterReport(*clusters))
	}
	if *htmlOut != "" {
		page := d.HTML(fmt.Sprintf("pdiff: %s vs %s", *fromPath, *toPath))
		if err := os.WriteFile(*htmlOut, []byte(page), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *htmlOut)
	}
	return 0
}

// crossDiff handles -across: compare a run of one spec version with a
// run of an evolved version through the spec-evolution mapping.
func crossDiff(sp1 *spec.Spec, r1 *wfrun.Run, acrossPath, toPath string, model cost.Model) {
	sp2, err := cli.LoadSpec(acrossPath)
	if err != nil {
		fatal(fmt.Errorf("loading %s: %w", acrossPath, err))
	}
	r2, err := cli.LoadRun(toPath, sp2)
	if err != nil {
		fatal(fmt.Errorf("loading %s: %w", toPath, err))
	}
	m, err := evolve.SpecDiff(sp1, sp2, evolve.DefaultCosts())
	if err != nil {
		fatal(err)
	}
	res, err := evolve.CrossDiff(m, r1, r2, model)
	if err != nil {
		fatal(err)
	}
	st := m.Stats()
	fmt.Fprintf(stdout, "spec evolution: cost %g, %d modules survive, %d deleted, %d inserted\n",
		m.Cost, st.MappedModules, st.DeletedModules, st.InsertedModules)
	fmt.Fprintf(stdout, "cross-version distance: %g (%s cost)\n", res.Distance, model.Name())
	fmt.Fprintf(stdout, "  data-driven change (run diff of projection): %g\n", res.EngineDistance)
	fmt.Fprintf(stdout, "  spec-forced change: dropped %g (%d regions), inserted %g (%d regions)\n",
		res.Projection.DroppedCost, res.Projection.DroppedRegions,
		res.Projection.InsertedCost, res.Projection.InsertedRegions)
}

func fatal(err error) {
	fmt.Fprintln(stderr, "pdiff:", err)
	panic(exitErr{1})
}
