// Command benchgate is the CI performance-regression gate. It reads
// `go test -bench` output (from files or stdin), compares every
// benchmark present in the committed baseline, and exits non-zero if
// any regressed past the threshold in ns/op or allocs/op, or grew a
// work counter (exact/op, decisions/op, …) by more than 1%:
//
//	go test -run=NONE -bench=. -benchmem ./... | benchgate -baseline BENCH_baseline.json
//	benchgate -baseline BENCH_baseline.json bench.txt more.txt
//
// Refreshing the baseline after an intentional change (new benchmark,
// accepted slowdown, real speedup worth locking in):
//
//	go test -run=NONE -bench=... -benchmem ... | benchgate -baseline BENCH_baseline.json -update
//
// -update merges: measured benchmarks replace their entries, entries
// not measured in this run are preserved. The threshold (default
// 0.30 = +30%) is deliberately generous for ns/op because CI runners
// are noisy; allocs/op is deterministic, so even its generous
// threshold only ever trips on real allocation regressions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchgate"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline JSON")
		threshold    = flag.Float64("threshold", 0.30, "allowed fractional regression (0.30 = +30%)")
		update       = flag.Bool("update", false, "write current results into the baseline instead of gating")
		note         = flag.String("note", "", "baseline note to record with -update")
		quiet        = flag.Bool("q", false, "only print regressions")
	)
	flag.Parse()

	current := make(map[string]benchgate.Result)
	readInto := func(r io.Reader, name string) {
		got, err := benchgate.Parse(r)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		for k, v := range got {
			current[k] = v
		}
	}
	if flag.NArg() == 0 {
		readInto(os.Stdin, "stdin")
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		readInto(f, path)
		f.Close()
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark results found in input"))
	}

	if *update {
		base, err := benchgate.Load(*baselinePath)
		if err != nil {
			if !os.IsNotExist(err) {
				fatal(err)
			}
			base = &benchgate.Baseline{Benchmarks: map[string]benchgate.Result{}}
		}
		if *note != "" {
			base.Note = *note
		}
		benchgate.Update(base, current)
		if err := benchgate.Save(*baselinePath, base); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: recorded %d benchmarks into %s\n", len(current), *baselinePath)
		return
	}

	base, err := benchgate.Load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	findings, failed := benchgate.Compare(base, current, *threshold)
	gated := 0
	for _, f := range findings {
		gated++
		if f.Failed || !*quiet {
			fmt.Println(f)
		}
	}
	fmt.Printf("benchgate: %d measurements gated against %s (threshold +%.0f%%)\n",
		gated, *baselinePath, *threshold*100)
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL — performance regressed past the threshold; if intentional, refresh the baseline with -update and say why in the PR")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
