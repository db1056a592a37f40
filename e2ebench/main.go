// Command e2ebench is provdiff's end-to-end benchmark: one closed-loop
// workload against an in-process provserved-equivalent (server.New
// over a prepared repository), with the load generator in the same
// process. It prints one JSON result line on stdout; everything else
// goes to stderr.
//
//	e2ebench --workload cohort-window --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 runs the same
// traffic with tracing on and prints the per-layer metrics instead,
// writing its spans under .bench_build/trace/. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// workRoot holds fixtures and traces, relative to the checkout root.
const workRoot = ".bench_build"

// setupReps is how many warm starts a run times; setup_s is their
// median and the last one serves the traffic. A cohort-window start
// takes about 0.1 s, and the median of three of them spread by 0.39
// over ten runs.
const setupReps = 9

// runDeadline stops a run that would exceed the benchmark's time limit.
const runDeadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fixture" {
		if err := fixtureMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench fixture:", err)
			os.Exit(1)
		}
		return
	}
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: ingest-fs, cohort-window or nearest-indexed")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "run length; scales the fixed op count")
	trace := fl.Int("trace", 0, "1 runs traced and prints per-layer metrics")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded", runDeadline)
		os.Exit(3)
	})
	res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fixtureMain(args []string) error {
	fl := flag.NewFlagSet("fixture", flag.ContinueOnError)
	name := fl.String("workload", "", "workload")
	seconds := fl.Int("seconds", 10, "run length")
	dir := fl.String("dir", "", "repository directory to create")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	return buildFixture(w, *seconds, *dir)
}

// run performs one benchmark run: fixture, timed warm starts, traffic,
// answer checks, metrics.
func run(w workload, seed int64, seconds int, traced bool) (*result, error) {
	work := filepath.Join(workRoot, "work", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	fixtureDir := filepath.Join(work, "repo")

	clock := &phaseClock{last: time.Now()}
	defer clock.report()
	tr, err := makeTraffic(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	clock.mark("inputs")
	if err := runFixtureChild(w, seconds, fixtureDir); err != nil {
		return nil, err
	}
	clock.mark("fixture")
	var mem store.Backend
	if w.backend == "memory" {
		fsbe, err := store.NewFSBackend(fixtureDir)
		if err != nil {
			return nil, err
		}
		mem = store.NewMemoryBackend()
		if err := copyBackend(mem, fsbe); err != nil {
			return nil, fmt.Errorf("copy fixture into memory backend: %w", err)
		}
	}
	rawBackend := func() (store.Backend, error) {
		if mem != nil {
			return mem, nil
		}
		return store.NewFSBackend(fixtureDir)
	}

	var t *tracer
	opts := defaultOptions()
	if traced {
		t = newTracer()
		opts.OnRequestTiming = t.onTiming
	}

	// Timed warm starts; the last one serves the traffic.
	var svc *service
	var raw store.Backend
	var tb *tracedBackend
	setups := make([]float64, 0, setupReps)
	var last setupTimes
	for i := 0; i < setupReps; i++ {
		if raw, err = rawBackend(); err != nil {
			return nil, err
		}
		be := raw
		var wrap func(h http.Handler) http.Handler
		if traced {
			tb = newTracedBackend(raw, t)
			be, wrap = tb, t.wrap
		}
		// Each start begins from a collected heap, not from the
		// garbage of the one before.
		runtime.GC()
		if i == setupReps-1 {
			resetPeakRSS()
		}
		s, st, err := startService(be, opts, wrap)
		if err != nil {
			return nil, fmt.Errorf("warm start %d: %w", i+1, err)
		}
		setups = append(setups, st.Total.Seconds())
		last = st
		if i < setupReps-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			svc = s
		}
	}

	clock.mark("setups")
	sess, err := newSession(w, seconds, tr, t)
	if err != nil {
		svc.stop()
		return nil, err
	}
	before := snapshotLayers(svc, raw)
	blobsBefore := tb.snapshot()
	clock.mark("prepare")
	sess.drive(svc.base)
	clock.mark("traffic")
	blobsAfter := tb.snapshot()
	peak, err := peakRSSMB()
	if err != nil {
		svc.stop()
		return nil, err
	}
	after := snapshotLayers(svc, raw)
	before.blobs, after.blobs = blobsBefore, blobsAfter
	var led ledgerTimes
	if traced {
		if led, err = timeLedger(svc.st); err != nil {
			svc.stop()
			return nil, err
		}
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}

	var checkErr error
	if w.name == "ingest-fs" {
		checkErr = sess.checkIngest(fixtureDir)
	} else {
		checkErr = sess.checkAnswers()
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: answer check:", checkErr)
	}
	clock.mark("checks")

	lats := make([]float64, 0, len(sess.results))
	failed := 0
	for k, r := range sess.results {
		lats = append(lats, ms(r.Lat))
		if !r.OK {
			if failed < 5 {
				fmt.Fprintf(os.Stderr, "e2ebench: op %d failed: %s\n", k, r.Err)
			}
			failed++
		}
	}
	p50 := percentile(lats, 0.50)
	res := &result{Correct: failed == 0 && checkErr == nil, Attempted: len(sess.results), Failed: failed}
	inputBytes := storedInputBytes(sess)
	growth := ratio(float64(after.repoBytes-before.repoBytes), float64(inputBytes))
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed=%d ops=%d wall=%.3fs p50=%.3fms p90=%.3fms p99=%.3fms error_rate=%g setup_s=%v repo_bytes_per_input_byte=%.4f\n",
		w.name, seed, len(lats), sess.wall.Seconds(), p50, percentile(lats, 0.90), percentile(lats, 0.99),
		ratio(float64(failed), float64(len(lats))), setups, growth)

	if !traced {
		res.Metrics = map[string]metric{
			"setup_s":        {median(setups), "s"},
			"ops_per_s":      {float64(len(lats)) / sess.wall.Seconds(), "1/s"},
			"latency_p50_ms": {p50, "ms"},
			"latency_p90_ms": {percentile(lats, 0.90), "ms"},
			"peak_rss_mb":    {peak, "MB"},
		}
		return res, nil
	}

	lm, decompErr := layerMetrics(layerInputs{
		w: w, seconds: seconds, sess: sess, t: t,
		before: before, after: after, setup: last, ledger: led,
		p50: p50, growth: growth,
	})
	if decompErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: decomposition:", decompErr)
		res.Correct = false
	}
	res.Metrics = lm
	traceDir := filepath.Join(workRoot, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	spans := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
	if err := t.writeSpans(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", t.spanCount(), spans)
	return res, nil
}

// storedInputBytes is the XML size of the runs the traffic stored.
func storedInputBytes(s *session) int64 {
	var n int64
	switch s.w.name {
	case "ingest-fs":
		for _, k := range s.acked {
			n += int64(len(s.tr.Fresh[k].XML))
		}
	case "cohort-window":
		for k, r := range s.results {
			if r.OK {
				n += int64(len(s.tr.Fresh[k].XML))
			}
		}
	}
	return n
}

// layerSnapshot is the cumulative state read before and after traffic.
type layerSnapshot struct {
	stats     statsView
	rt        goRuntime
	blobs     map[string]blobCounters
	repoBytes int64
}

// statsView is the part of Server.Stats the benchmark reads.
type statsView struct {
	CacheHits, CacheMisses   int64
	EngineGets, EngineReused int64
	Batches, Committed       int64
	MaxDepth                 int64
	ExactDiffs, PrunedPairs  int64
}

func readStats(srv *server.Server) statsView {
	s := srv.Stats()
	return statsView{
		CacheHits: s.Cache.Hits, CacheMisses: s.Cache.Misses,
		EngineGets: s.Engines.Gets, EngineReused: s.Engines.Reused,
		Batches: s.Ingest.Batches, Committed: s.Ingest.Committed, MaxDepth: s.Ingest.MaxDepth,
		ExactDiffs: s.MetricIndex.ExactDiffs, PrunedPairs: s.MetricIndex.PrunedPairs,
	}
}

// snapshotLayers reads the server counters, the Go runtime and the
// repository size. Blob counters are read separately, right around
// the traffic, so the Stats call's own backend reads stay out.
func snapshotLayers(svc *service, raw store.Backend) layerSnapshot {
	snap := layerSnapshot{stats: readStats(svc.srv), rt: readGoRuntime()}
	if n, err := backendBytes(raw); err == nil {
		snap.repoBytes = n
	}
	return snap
}

// phaseClock reports on stderr how long each step of a run took.
type phaseClock struct {
	last  time.Time
	parts []string
}

func (c *phaseClock) mark(step string) {
	now := time.Now()
	c.parts = append(c.parts, fmt.Sprintf("%s %.1fs", step, now.Sub(c.last).Seconds()))
	c.last = now
}

func (c *phaseClock) report() {
	c.mark("rest")
	fmt.Fprintln(os.Stderr, "e2ebench: steps:", strings.Join(c.parts, ", "))
}
