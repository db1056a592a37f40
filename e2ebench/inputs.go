package main

// Seeded input generation. Everything a run sends to the service is
// derived here from (workload, seed, seconds) and nothing else, so the
// same arguments always give byte-identical documents and the same op
// sequence.
//
// The stored fixture is drawn from a fixed stream, the same for every
// --seed; the seed drives the traffic: fresh runs, event streams,
// query order and the checked sample. Drawn per seed, the fixture's
// run sizes alone moved the median size of a diffed pair by up to 15%
// between seeds, spread that every comparison would carry.
// cohort-window still cycles its whole cohort through seeded runs.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// specName is the one specification every fixture holds.
const specName = "pa"

// checkSamples is how many ops per run have their answers re-derived
// by the benchmark's own parse.
const checkSamples = 32

// workload is one fixed traffic shape, driven by one closed-loop
// client. The op count of a run is
// opsPerSecond × --seconds; opsPerSecond was sized on a 2-vCPU VM so a
// run takes roughly --seconds there, and it never adapts at run time,
// so both sides of a comparison do the same work.
type workload struct {
	name    string
	backend string // "fs" or "memory"
	params  gen.RunParams
	// opsPerSecond scales the fixed op count with --seconds.
	opsPerSecond float64
	// fixtureRuns sizes the prepared repository for a given op count.
	fixtureRuns func(ops int) int
}

// cohortWindow is the constant cohort size of cohort-window: below
// analysis.DefaultIndexThreshold (256), so the cohort stays dense.
const cohortWindow = 128

// indexedCohortMin keeps nearest-indexed above the index threshold.
const indexedCohortMin = 600

// ingestHistory is the number of runs stored before ingest-fs starts.
const ingestHistory = 1000

// workloads are the three traffic shapes; README.md gives each one's
// reason.
var workloads = []workload{
	{
		name: "ingest-fs", backend: "fs", params: gen.DefaultRunParams(), opsPerSecond: 65,
		fixtureRuns: func(int) int { return ingestHistory },
	},
	{
		name: "cohort-window", backend: "memory", params: gen.DefaultRunParams(), opsPerSecond: 90,
		fixtureRuns: func(int) int { return cohortWindow },
	},
	{
		name: "nearest-indexed", backend: "memory", params: gen.DefaultRunParams(), opsPerSecond: 90,
		fixtureRuns: func(ops int) int { return max(indexedCohortMin, ops) },
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opsFor is the fixed op count of a run of the given length.
func (w workload) opsFor(seconds int) int {
	return max(1, int(math.Round(w.opsPerSecond*float64(seconds))))
}

// namedRun is one generated run document.
type namedRun struct {
	Name string
	XML  []byte
}

// fixtureSeed seeds the fixture stream of every run. Traffic streams
// use even sources, so no seed replays the fixture as its traffic.
const fixtureSeed = 1

func fixtureRNG() *rand.Rand           { return rand.New(rand.NewSource(fixtureSeed)) }
func trafficRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed*2 + 2)) }

// paSpec builds the PA workflow of the paper's Table I.
func paSpec() (*spec.Spec, error) { return gen.Catalog("PA") }

// generateRuns draws n runs of sp and encodes each as XML named
// prefix + index.
func generateRuns(sp *spec.Spec, p gen.RunParams, rng *rand.Rand, prefix string, n int) ([]namedRun, error) {
	out := make([]namedRun, n)
	for i := range out {
		r, err := gen.RandomRun(sp, p, rng)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s%05d", prefix, i)
		var buf bytes.Buffer
		if err := wfxml.EncodeRun(&buf, r, name); err != nil {
			return nil, err
		}
		out[i] = namedRun{Name: name, XML: buf.Bytes()}
	}
	return out, nil
}

// fixtureRunsOf regenerates a workload's fixture runs.
func fixtureRunsOf(w workload, seconds int) (*spec.Spec, []namedRun, error) {
	sp, err := paSpec()
	if err != nil {
		return nil, nil, err
	}
	runs, err := generateRuns(sp, w.params, fixtureRNG(), "f", w.fixtureRuns(w.opsFor(seconds)))
	return sp, runs, err
}

// traffic is the op sequence of one run. Only the fields of the
// run's workload are set.
type traffic struct {
	Ops int
	// Fresh (ingest-fs, cohort-window) are new runs, in op order.
	Fresh []namedRun
	// Events (cohort-window) are Fresh replayed as two event batches.
	Events [][2][]wfrun.Event
	// Deletes (cohort-window) names the run deleted by each cycle.
	Deletes []string
	// Queries (nearest-indexed) indexes fixture runs; none repeats.
	Queries []int
	// Checked marks the ops whose answers are re-derived.
	Checked map[int]bool
}

// makeTraffic builds the seeded op sequence of a run.
func makeTraffic(w workload, seed int64, seconds int) (*traffic, error) {
	ops := w.opsFor(seconds)
	nFix := w.fixtureRuns(ops)
	rng := trafficRNG(seed)
	t := &traffic{Ops: ops}
	switch w.name {
	case "ingest-fs", "cohort-window":
		sp, err := paSpec()
		if err != nil {
			return nil, err
		}
		prefix := "n"
		if w.name == "cohort-window" {
			prefix = "c"
		}
		if t.Fresh, err = generateRuns(sp, w.params, rng, prefix, ops); err != nil {
			return nil, err
		}
		if w.name == "cohort-window" {
			if t.Events, err = splitEvents(sp, t.Fresh); err != nil {
				return nil, err
			}
			t.Deletes = deletionOrder(nFix, t.Fresh)
		}
	case "nearest-indexed":
		t.Queries = rng.Perm(nFix)[:ops]
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	t.Checked = make(map[int]bool, checkSamples)
	for _, k := range rng.Perm(ops)[:min(checkSamples, ops)] {
		t.Checked[k] = true
	}
	return t, nil
}

// splitEvents replays each run as its event stream cut in two halves:
// the first PATCH of a cycle opens the live run, the second completes
// it.
func splitEvents(sp *spec.Spec, runs []namedRun) ([][2][]wfrun.Event, error) {
	out := make([][2][]wfrun.Event, len(runs))
	for i, nr := range runs {
		r, err := wfxml.DecodeRun(bytes.NewReader(nr.XML), sp)
		if err != nil {
			return nil, err
		}
		evs := wfrun.Events(r)
		half := len(evs) / 2
		out[i] = [2][]wfrun.Event{evs[:half], evs[half:]}
	}
	return out, nil
}

// deletionOrder is the FIFO of cohort-window: each cycle adds its new
// run and deletes the oldest stored one, fixture runs first.
func deletionOrder(nFix int, fresh []namedRun) []string {
	queue := make([]string, 0, nFix+len(fresh))
	for i := 0; i < nFix; i++ {
		queue = append(queue, fmt.Sprintf("f%05d", i))
	}
	out := make([]string, len(fresh))
	for i, nr := range fresh {
		queue = append(queue, nr.Name)
		out[i], queue = queue[0], queue[1:]
	}
	return out
}
