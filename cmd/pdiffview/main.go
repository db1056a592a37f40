// Command pdiffview serves the PDiffView visualization over HTTP:
//
//	pdiffview -spec spec.xml -from run1.xml -to run2.xml [-addr :8080] [-cost unit]
//
// GET /            the full diff page (runs side by side, script, rollup)
// GET /source.svg  the source run graph with deleted paths in red
// GET /target.svg  the target run graph with inserted paths in green
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"repro/internal/cli"
	"repro/internal/cost"
	"repro/internal/view"
)

func main() {
	var (
		specPath = flag.String("spec", "", "specification XML file (required)")
		fromPath = flag.String("from", "", "source run XML file (required)")
		toPath   = flag.String("to", "", "target run XML file (required)")
		costName = flag.String("cost", "unit", "cost model: unit, length, or power:EPS")
		addr     = flag.String("addr", ":8080", "listen address")
	)
	flag.Parse()
	if *specPath == "" || *fromPath == "" || *toPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	model, err := cost.Parse(*costName)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := cli.LoadSpec(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	r1, err := cli.LoadRun(*fromPath, sp)
	if err != nil {
		log.Fatal(err)
	}
	r2, err := cli.LoadRun(*toPath, sp)
	if err != nil {
		log.Fatal(err)
	}
	d, err := view.New(r1, r2, model)
	if err != nil {
		log.Fatal(err)
	}
	http.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, d.HTML("PDiffView"))
	})
	http.HandleFunc("/source.svg", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, view.RenderSVG(d.R1, d.EdgeStatus1()))
	})
	http.HandleFunc("/target.svg", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, view.RenderSVG(d.R2, d.EdgeStatus2()))
	})
	log.Printf("pdiffview: serving on %s (distance %g)", *addr, d.Result.Distance)
	log.Fatal(http.ListenAndServe(*addr, nil))
}
