package benchgate

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDistanceMatrix-8   	    1512	    789123 ns/op	  144087 B/op	     853 allocs/op
BenchmarkEngineReuse/fresh-8	    1386	    866000 ns/op	  402000 B/op	    1410 allocs/op
BenchmarkEngineReuse/engine-8	    2984	    401000 ns/op	    2100 B/op	      29 allocs/op
BenchmarkNoMem-8            	 1000000	      1050 ns/op
PASS
ok  	repro	4.639s
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks: %v", len(got), got)
	}
	dm := got["BenchmarkDistanceMatrix"]
	if dm.NsPerOp != 789123 || dm.AllocsPerOp != 853 || dm.BytesPerOp != 144087 {
		t.Fatalf("DistanceMatrix = %+v", dm)
	}
	sub := got["BenchmarkEngineReuse/engine"]
	if sub.NsPerOp != 401000 || sub.AllocsPerOp != 29 {
		t.Fatalf("sub-benchmark = %+v", sub)
	}
	if nm := got["BenchmarkNoMem"]; nm.NsPerOp != 1050 || nm.AllocsPerOp != -1 {
		t.Fatalf("no-benchmem line = %+v", nm)
	}
}

func TestParseKeepsFastestOfRepeats(t *testing.T) {
	out := `
BenchmarkX-8   100   2000 ns/op   50 B/op   7 allocs/op
BenchmarkX-8   100   1500 ns/op   50 B/op   9 allocs/op
BenchmarkX-8   100   1800 ns/op   40 B/op   8 allocs/op
`
	got, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	x := got["BenchmarkX"]
	if x.NsPerOp != 1500 || x.AllocsPerOp != 7 || x.BytesPerOp != 40 {
		t.Fatalf("repeat merge = %+v", x)
	}
}

func TestCompareGates(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkFast":   {NsPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkGone":   {NsPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkJitter": {NsPerOp: 1000, AllocsPerOp: 10},
	}}
	current := map[string]Result{
		"BenchmarkFast":   {NsPerOp: 2100, AllocsPerOp: 10}, // 2.1x ns regression
		"BenchmarkJitter": {NsPerOp: 1250, AllocsPerOp: 10}, // within 30%
		"BenchmarkNew":    {NsPerOp: 99999, AllocsPerOp: 9}, // not in baseline
	}
	findings, failed := Compare(base, current, 0.30)
	if !failed {
		t.Fatal("2.1x slowdown passed the gate")
	}
	var failedNames []string
	for _, f := range findings {
		if f.Failed {
			failedNames = append(failedNames, f.Name+" "+f.Metric)
		}
	}
	if len(failedNames) != 1 || failedNames[0] != "BenchmarkFast ns/op" {
		t.Fatalf("failed findings = %v, want only BenchmarkFast ns/op", failedNames)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100},
	}}
	_, failed := Compare(base, map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 131},
	}, 0.30)
	if !failed {
		t.Fatal("31% alloc regression passed the gate")
	}
	_, failed = Compare(base, map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 129},
	}, 0.30)
	if failed {
		t.Fatal("29% alloc growth failed the gate")
	}
}

func TestSaveLoadUpdateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	b := &Baseline{Note: "test", Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 5},
	}}
	Update(b, map[string]Result{
		"BenchmarkA": {NsPerOp: 900, AllocsPerOp: 90, BytesPerOp: 4},
		"BenchmarkB": {NsPerOp: 50, AllocsPerOp: 1},
	})
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != "test" || len(got.Benchmarks) != 2 || got.Benchmarks["BenchmarkA"].NsPerOp != 900 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestParseWorkCounters(t *testing.T) {
	out := `
BenchmarkEngineReuse/engine-2   10000   30624 ns/op   35.00 cells/op   107.0 decisions/op   64 B/op   1 allocs/op
BenchmarkEngineReuse/engine-2   18140   29634 ns/op   36.00 cells/op   107.0 decisions/op   64 B/op   1 allocs/op
BenchmarkIndexedNearest10k-2    294   1098803 ns/op   99.89 %pruned   11.12 exact/op   164634 B/op   13 allocs/op
BenchmarkPlain-2                100      1000 ns/op   8 B/op   1 allocs/op
`
	got, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	eng := got["BenchmarkEngineReuse/engine"]
	if eng.Work["cells/op"] != 35 || eng.Work["decisions/op"] != 107 || len(eng.Work) != 2 {
		t.Fatalf("engine work = %v, want the smallest sample of cells/op and decisions/op", eng.Work)
	}
	if eng.AllocsPerOp != 1 || eng.BytesPerOp != 64 {
		t.Fatalf("engine = %+v", eng)
	}
	nn := got["BenchmarkIndexedNearest10k"]
	if nn.Work["exact/op"] != 11.12 || len(nn.Work) != 1 || nn.AllocsPerOp != 13 || nn.BytesPerOp != 164634 {
		t.Fatalf("kNN = %+v, want exact/op only (a %% column is no work counter)", nn)
	}
	if w := got["BenchmarkPlain"].Work; len(w) != 0 {
		t.Fatalf("plain benchmark has work %v", w)
	}
}

func TestCompareWorkCounters(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10, Work: map[string]float64{"exact/op": 100, "cells/op": 35}},
	}}
	gate := func(work map[string]float64) []string {
		findings, failed := Compare(base, map[string]Result{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10, Work: work}}, 0.30)
		var bad []string
		for _, f := range findings {
			if f.Failed {
				bad = append(bad, f.Metric)
			}
		}
		if failed != (len(bad) > 0) {
			t.Fatalf("failed = %v with failing findings %v", failed, bad)
		}
		return bad
	}
	if bad := gate(map[string]float64{"exact/op": 101, "cells/op": 20}); len(bad) != 0 {
		t.Fatalf("1%% growth and a drop failed the gate: %v", bad)
	}
	if bad := gate(map[string]float64{"exact/op": 102, "cells/op": 35}); len(bad) != 1 || bad[0] != "exact/op" {
		t.Fatalf("2%% growth: failing = %v, want exact/op", bad)
	}
	if bad := gate(map[string]float64{"cells/op": 35}); len(bad) != 0 {
		t.Fatalf("a counter the run did not report failed the gate: %v", bad)
	}
}

func TestSaveLoadKeepsWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	b := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100, Work: map[string]float64{"exact/op": 6770}},
		"BenchmarkB": {NsPerOp: 50, AllocsPerOp: 1},
	}}
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks["BenchmarkA"].Work["exact/op"] != 6770 || got.Benchmarks["BenchmarkB"].Work != nil {
		t.Fatalf("round trip = %+v", got)
	}
}
