package server

// Service-layer latency benchmarks. BenchmarkServeDiffCold measures a
// full diff request through the handler with the result cache
// disabled for that request (purged each iteration): engine checkout,
// differencing, script extraction, JSON encoding. BenchmarkServeDiffCached
// measures the same request served from the LRU. CI runs
// TestWriteBenchArtifact with BENCH_SERVER_JSON set to persist both as
// BENCH_server.json, so future PRs can track service-layer latency.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/wfxml"
)

func benchRequest(b *testing.B, srv *Server, target string) {
	b.Helper()
	req := httptest.NewRequest("GET", target, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s = %d %q", target, rec.Code, rec.Body.String())
	}
}

func BenchmarkServeDiffCached(b *testing.B) {
	srv, _ := seedServer(b, 2, Options{CacheSize: 8})
	benchRequest(b, srv, "/v1/specs/pa/diff/r0/r1") // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, srv, "/v1/specs/pa/diff/r0/r1")
	}
}

func BenchmarkServeDiffCold(b *testing.B) {
	srv, _ := seedServer(b, 2, Options{CacheSize: 8})
	benchRequest(b, srv, "/v1/specs/pa/diff/r0/r1") // warm the engine pool and run cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.cache.purge()
		benchRequest(b, srv, "/v1/specs/pa/diff/r0/r1")
	}
}

func BenchmarkServeCohort(b *testing.B) {
	srv, _ := seedServer(b, 6, Options{CacheSize: 8})
	benchRequest(b, srv, "/v1/specs/pa/cohort")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, srv, "/v1/specs/pa/cohort")
	}
}

// BenchmarkClusterCohort measures a k-medoids request over a 32-run
// cohort with a warm incremental matrix but a cold payload cache —
// the steady-state cost of re-clustering after each import.
func BenchmarkClusterCohort(b *testing.B) {
	srv, _ := seedServer(b, 32, Options{CacheSize: 8})
	benchRequest(b, srv, "/v1/specs/pa/cluster?k=3") // build the matrix once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.cache.purge()
		benchRequest(b, srv, "/v1/specs/pa/cluster?k=3")
	}
}

// BenchmarkIncrementalImport measures the full import→query→delete
// cycle against a 32-run cohort: each iteration the shared
// HybridCohort (dense at this size) diffs only the new row (32 pairs)
// instead of rebuilding all 496, and the delete diffs nothing, which
// is what makes a growing repository affordable. The sibling
// full-recompute cost is BenchmarkServeCohort scaled to 32 runs; the
// diff-call ratio itself is asserted by the analysis package's
// TestCohortMatrixIncrementalSavesDiffs and by
// TestCohortMatrixIncrementalOverHTTP.
func BenchmarkIncrementalImport(b *testing.B) {
	srv, st := seedServer(b, 32, Options{CacheSize: 8})
	body := encodeRun(b, st, 555)
	benchRequest(b, srv, "/v1/specs/pa/nearest?run=r0&k=3") // build the matrix once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := do(b, srv, "POST", "/v1/specs/pa/runs/bench-fresh", body, nil)
		if rec.Code != 201 {
			b.Fatalf("import = %d", rec.Code)
		}
		benchRequest(b, srv, "/v1/specs/pa/nearest?run=bench-fresh&k=3")
		if rec := do(b, srv, "DELETE", "/v1/specs/pa/runs/bench-fresh", nil, nil); rec.Code != 200 {
			b.Fatalf("delete = %d", rec.Code)
		}
	}
}

// BenchmarkFullRecompute32 is the baseline BenchmarkIncrementalImport
// beats: a from-scratch 32-run matrix per iteration, as served before
// the incremental cohort cache existed.
func BenchmarkFullRecompute32(b *testing.B) {
	srv, _ := seedServer(b, 32, Options{CacheSize: 8})
	benchRequest(b, srv, "/v1/specs/pa/cohort")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, srv, "/v1/specs/pa/cohort")
	}
}

// TestWriteBenchArtifact materializes the service benchmarks as a JSON
// file (path in $BENCH_SERVER_JSON) for the CI benchmark artifact. It
// is skipped in normal test runs.
func TestWriteBenchArtifact(t *testing.T) {
	path := os.Getenv("BENCH_SERVER_JSON")
	if path == "" {
		t.Skip("BENCH_SERVER_JSON not set")
	}
	type entry struct {
		NsPerOp       int64   `json:"ns_per_op"`
		AllocsPerOp   int64   `json:"allocs_per_op"`
		BytesPerOp    int64   `json:"bytes_per_op"`
		N             int     `json:"n"`
		MsPerOp       float64 `json:"ms_per_op"`
		SpeedupVsCold float64 `json:"speedup_vs_cold,omitempty"`
	}
	run := func(fn func(*testing.B)) entry {
		r := testing.Benchmark(fn)
		return entry{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
			MsPerOp:     float64(r.NsPerOp()) / 1e6,
		}
	}
	cached := run(BenchmarkServeDiffCached)
	cold := run(BenchmarkServeDiffCold)
	cohort := run(BenchmarkServeCohort)
	clusterCohort := run(BenchmarkClusterCohort)
	incremental := run(BenchmarkIncrementalImport)
	full32 := run(BenchmarkFullRecompute32)
	sustainedPipeline := run(func(b *testing.B) {
		benchSustainedIngest(b, Options{IngestBatch: ingestClients})
	})
	if cold.NsPerOp > 0 {
		cached.SpeedupVsCold = float64(cold.NsPerOp) / float64(max(cached.NsPerOp, 1))
	}
	if full32.NsPerOp > 0 {
		incremental.SpeedupVsCold = float64(full32.NsPerOp) / float64(max(incremental.NsPerOp, 1))
	}
	out := map[string]entry{
		"serve_diff_cached":         cached,
		"serve_diff_cold":           cold,
		"serve_cohort":              cohort,
		"cluster_cohort":            clusterCohort,
		"incremental_import":        incremental,
		"full_recompute_32":         full32,
		"sustained_ingest_pipeline": sustainedPipeline,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: cached %.3fms vs cold %.3fms (%.1fx); incremental import %.3fms vs full recompute %.3fms (%.1fx); sustained ingest pipeline %.3fms",
		path, cached.MsPerOp, cold.MsPerOp, cached.SpeedupVsCold,
		incremental.MsPerOp, full32.MsPerOp, incremental.SpeedupVsCold,
		sustainedPipeline.MsPerOp)
	if cached.NsPerOp >= cold.NsPerOp {
		t.Errorf("cached path (%d ns/op) is not faster than cold path (%d ns/op)", cached.NsPerOp, cold.NsPerOp)
	}
	if incremental.NsPerOp >= full32.NsPerOp {
		t.Errorf("incremental import (%d ns/op) is not faster than a full 32-run recompute (%d ns/op)", incremental.NsPerOp, full32.NsPerOp)
	}
}

// smallRunBody encodes a run generated with low fork/loop replication:
// the import-cost profile where per-run bookkeeping (segment and
// ledger appends, fsync, cache eviction) dominates over parsing.
func smallRunBody(b *testing.B, st *store.Store, seed int64) []byte {
	b.Helper()
	sp, err := st.LoadSpec("pa")
	if err != nil {
		b.Fatal(err)
	}
	p := gen.RunParams{ProbP: 0.9}
	r, err := gen.RandomRun(sp, p, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r, "x"); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchSustainedIngest drives eight concurrent import-and-read-back
// clients: each iteration overwrites the client's run and immediately
// diffs it against a stable reference — a live repository under
// sustained ingest with its results actually being consumed. The
// pipeline parses once, publishes the run, and amortizes one fsynced
// segment append and one fsynced ledger append over the whole batch.
func benchSustainedIngest(b *testing.B, opts Options) {
	opts.CacheSize = -1 // no result LRU: every read-back does real work
	srv, st := seedServer(b, 2, opts)
	defer srv.Close()
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = smallRunBody(b, st, int64(2000+i))
	}
	// Materialize one run per client so the timed loop measures
	// steady-state overwrites.
	for i := 0; i < ingestClients; i++ {
		target := fmt.Sprintf("/v1/specs/pa/runs/w%d", i)
		if rec := do(b, srv, "POST", target, bodies[i%len(bodies)], nil); rec.Code != http.StatusCreated {
			b.Fatalf("%s = %d %q", target, rec.Code, rec.Body.String())
		}
	}
	if _, err := st.Snapshot("pa"); err != nil {
		b.Fatal(err)
	}
	var clients atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.SetParallelism(ingestClients)
	b.RunParallel(func(pb *testing.PB) {
		// One run name per client: overwrites of a name never race its
		// own read-back.
		c := int(clients.Add(1)-1) % ingestClients // one name per goroutine: ids stay unique
		name := fmt.Sprintf("w%d", c)
		for i := c; pb.Next(); i++ {
			rec := do(b, srv, "POST", "/v1/specs/pa/runs/"+name, bodies[i%len(bodies)], nil)
			if rec.Code != http.StatusCreated {
				b.Errorf("import %s = %d %q", name, rec.Code, rec.Body.String())
				return
			}
			target := "/v1/specs/pa/diff/" + name + "/r0"
			if rec := do(b, srv, "GET", target, nil, nil); rec.Code != http.StatusOK {
				b.Errorf("%s = %d %q", target, rec.Code, rec.Body.String())
				return
			}
		}
	})
}

// ingestClients is the concurrency of BenchmarkSustainedIngest (the
// bench runs on GOMAXPROCS(1) CI boxes, so SetParallelism alone sets
// the client count).
const ingestClients = 32

func BenchmarkSustainedIngest(b *testing.B) {
	b.Run("pipeline", func(b *testing.B) {
		benchSustainedIngest(b, Options{IngestBatch: ingestClients})
	})
}

// BenchmarkConcurrentImport measures group commit under concurrency:
// c clients split b.N sync imports of distinct default-parameter PA
// runs into an fs repository, and each batch carries whatever queued
// behind the commit before it. It reports runs/s and jobs/batch, the
// latter from the pipeline's Committed and Batches deltas. It is not
// in the gated set: coalescing, and with it allocs/op, follows the
// host's fsync latency.
func BenchmarkConcurrentImport(b *testing.B) {
	for _, c := range []int{1, 4, 16} {
		b.Run(strconv.Itoa(c), func(b *testing.B) {
			srv, st := seedServer(b, 0, Options{})
			defer srv.Close()
			bodies := make([][]byte, b.N)
			for i := range bodies {
				bodies[i] = encodeRun(b, st, int64(5000+i))
			}
			before := srv.ingest.Stats()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for g := 0; g < c; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
						target := "/v1/specs/pa/runs/c" + strconv.Itoa(i)
						if rec := do(b, srv, "POST", target, bodies[i], nil); rec.Code != http.StatusCreated {
							b.Errorf("%s = %d %q", target, rec.Code, rec.Body.String())
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			after := srv.ingest.Stats()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "runs/s")
			b.ReportMetric(float64(after.Committed-before.Committed)/float64(max(after.Batches-before.Batches, 1)), "jobs/batch")
		})
	}
}
