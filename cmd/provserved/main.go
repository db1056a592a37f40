// Command provserved serves an on-disk provenance repository over
// HTTP — the long-running counterpart of the provstore CLI, keeping
// differencing engines and parsed runs warm across requests:
//
//	provserved -dir DIR [-addr :8077] [-cache 512] [-demo N] [-seed S] [-preload=true]
//	           [-backend fs|memory]
//	           [-ingest-queue 1024] [-ingest-batch 64]
//	           [-timing-log FILE]
//
// Every route lives under /v1 (unversioned paths answer 404); the
// route list is in README.md, "Running the service".
//
// Single-run imports flow through a group-commit pipeline: concurrent
// importers coalesce into one snapshot append + one ledger append per
// batch. -ingest-queue bounds the backlog (past it clients get 429),
// and -ingest-batch caps runs per commit; a batch commits as soon as
// it is full or the queue runs dry.
//
// The analytics routes answer from the metric index, with its default
// landmark count, once a cohort reaches 256 runs, and from a dense
// distance matrix below that.
//
// -backend selects the storage engine: a local directory tree under
// DIR, or an in-memory store for ephemeral demos. Any other value, or
// a DIR that cannot be created, is a usage error.
//
// -demo N seeds an empty repository with the paper's protein
// annotation workflow ("demo") and N random runs, plus a mutated,
// lineage-linked version "demo-v2" with N runs of its own, so a fresh
// service can be exercised immediately — including the cross-version
// endpoints (CI smoke-tests do exactly this).
// -preload (default on) boots warm: every specification is parsed from
// its spec.xml and every stored run decoded from its frame, a
// repository written in the older one-XML-file-per-run layout is
// migrated, run indexes behind their ledger are checkpointed, and
// cohort matrices are prebuilt, so a restarted service answers its
// first diff at steady-state speed. On a repository checkpointed at
// its last clean shutdown the warm start writes nothing.
// SIGINT/SIGTERM trigger a graceful drain before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr    = flag.String("addr", ":8077", "listen address")
		dir     = flag.String("dir", "provstore", "repository directory")
		backend = flag.String("backend", "fs", "storage backend: fs or memory")
		cache   = flag.Int("cache", server.DefaultCacheSize, "diff-result LRU capacity (0 disables)")
		demo    = flag.Int("demo", 0, "seed a 'demo' spec with N generated runs if absent")
		seed    = flag.Int64("seed", 1, "random seed for -demo run generation")
		preload = flag.Bool("preload", true, "warm parsed-run and cohort-matrix caches from snapshots at boot")
		inQueue = flag.Int("ingest-queue", 0, "group-commit ingest queue depth (0 = default 1024); full queue answers 429")
		inBatch = flag.Int("ingest-batch", 0, "max runs per ingest group-commit (0 = default 64)")
		timing  = flag.String("timing-log", "", "append per-request stage timings as CSV to this file")
	)
	flag.Parse()
	be, err := store.NewBackend(*backend, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "provserved:", err)
		flag.Usage()
		os.Exit(2)
	}
	st := store.OpenBackend(be)
	defer st.Close()
	if *demo > 0 {
		if err := seedDemo(st, *demo, *seed); err != nil {
			log.Fatal(err)
		}
	}
	opts := server.Options{
		CacheSize:   *cache,
		IngestQueue: *inQueue,
		IngestBatch: *inBatch,
	}
	if *timing != "" {
		sink, err := newTimingLog(*timing)
		if err != nil {
			log.Fatal(err)
		}
		defer sink.Close()
		opts.OnRequestTiming = sink.record
	}
	handler := server.New(st, opts)
	if *preload {
		warmStart(st, handler)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("provserved: serving %s on %s", *dir, *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("provserved: draining connections")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("provserved: shutdown: %v", err)
	}
	// The listener is closed; drain the ingest queue so every accepted
	// import is committed before the process (and the store) go away,
	// then checkpoint so the next boot has no ledger batches to replay.
	handler.Close()
	checkpoint(st)
}

// checkpoint writes every spec's run index as of its ledger tail
// (Snapshot). A commit appends only to the segment and the ledger, so
// without a checkpoint the next load replays every batch committed
// since the last one. Failures cost only that replay.
func checkpoint(st *store.Store) {
	specs, err := st.ListSpecs()
	if err != nil {
		log.Printf("provserved: checkpoint: %v", err)
		return
	}
	for _, name := range specs {
		if _, err := st.Snapshot(name); err != nil {
			log.Printf("provserved: snapshot %s: %v", name, err)
		}
	}
}

// warmStart rebuilds the in-memory caches before the listener opens:
// every stored run is decoded from its frame, repositories written in
// the older layout are migrated (Snapshot), and the per-spec cohort
// matrices are built — so the first request after a restart is as
// fast as the thousandth before it. Failures only cost warmth, never
// availability.
func warmStart(st *store.Store, handler *server.Server) {
	t0 := time.Now()
	stats, err := st.PreloadAll()
	if err != nil {
		log.Printf("provserved: preload: %v", err)
	}
	var runs int
	for _, ps := range stats {
		runs += ps.Runs
	}
	t1 := time.Now()
	checkpoint(st)
	t2 := time.Now()
	if err := handler.Warm(); err != nil {
		log.Printf("provserved: cohort warm-up: %v", err)
	}
	t3 := time.Now()
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	log.Printf("provserved: warm start: %d specs, %d runs in %s (preload %s, checkpoint %s, cohort warm-up %s)",
		len(stats), runs, ms(t3.Sub(t0)), ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2)))
}

// seedDemo populates the repository with the protein annotation
// workflow and n runs under the spec name "demo", unless it already
// exists.
func seedDemo(st *store.Store, n int, seed int64) error {
	if _, err := st.LoadSpec("demo"); err == nil {
		return nil // already seeded
	}
	sp, err := gen.ProteinAnnotation()
	if err != nil {
		return err
	}
	if err := st.SaveSpec("demo", sp); err != nil {
		return err
	}
	// Runs must be built against the stored specification object.
	sp, err = st.LoadSpec("demo")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			return err
		}
		if err := st.SaveRun("demo", fmt.Sprintf("r%d", i), r); err != nil {
			return err
		}
	}
	// An evolved version of the demo workflow, lineage-linked so the
	// cross-version endpoints can be exercised out of the box.
	muts, err := gen.Mutate(sp, 2, rng)
	if err != nil {
		return err
	}
	if err := st.PutSpecVersion("demo", "demo-v2", muts[len(muts)-1].Spec); err != nil {
		return err
	}
	v2, err := st.LoadSpec("demo-v2")
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		r, err := gen.RandomRun(v2, gen.DefaultRunParams(), rng)
		if err != nil {
			return err
		}
		if err := st.SaveRun("demo-v2", fmt.Sprintf("v%d", i), r); err != nil {
			return err
		}
	}
	log.Printf("provserved: seeded demo spec (+demo-v2 lineage) with %d runs each", n)
	return nil
}
