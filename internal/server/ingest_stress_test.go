package server

// Race stress over the group-commit pipeline: sync imports, async
// imports with ticket polling, deletes, and /v1 analytic reads all
// interleave; run under -race this exercises the batcher's coalescing
// (including same-name jobs split into waves), the parse cache, and
// the cohort syncs at once. A settle phase then checks
// the pipeline's own accounting balances.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/ingest"
)

func TestIngestRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	gate := &ledgerGate{Backend: fsBackend(t, t.TempDir())}
	srv, st := seedServerOn(t, gate, 4, Options{
		CacheSize:       32,
		IngestBatch:     8,
		TicketRetention: 4096, // every async ticket must still be pollable at settle
	})
	bodies := make([][]byte, 4)
	for i := range bodies {
		bodies[i] = encodeRun(t, st, int64(600+i))
	}

	const (
		syncWriters = 2
		syncIters   = 60
		asyncPosts  = 60
	)
	var writers sync.WaitGroup
	writersDone := make(chan struct{})
	// The first commit is held in its ledger append until at least two
	// jobs queue behind it, so the churn commits at least one batch of
	// more than one job.
	entered, release := gate.arm()

	// Sync writers: overwrite a small rotating name set (forcing
	// same-name jobs through the wave splitter) and delete every
	// fourth round.
	for w := 0; w < syncWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < syncIters; i++ {
				name := fmt.Sprintf("sw%dn%d", w, i%5)
				rec := do(t, srv, "POST", "/v1/specs/pa/runs/"+name, bodies[(w+i)%len(bodies)], nil)
				if rec.Code != http.StatusCreated {
					t.Errorf("sync post %s = %d %q", name, rec.Code, rec.Body.String())
					return
				}
				if i%4 == 3 {
					rec := do(t, srv, "DELETE", "/v1/specs/pa/runs/"+name, nil, nil)
					if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
						t.Errorf("delete %s = %d %q", name, rec.Code, rec.Body.String())
						return
					}
				}
			}
		}(w)
	}

	// Async writer: fire-and-forget posts over its own rotating names;
	// every ticket is polled to resolution in the settle phase.
	statusURLs := make(chan string, asyncPosts)
	writers.Add(1)
	go func() {
		defer writers.Done()
		defer close(statusURLs)
		for i := 0; i < asyncPosts; i++ {
			var acc acceptedJSON
			rec := do(t, srv, "POST", fmt.Sprintf("/v1/specs/pa/runs/aw%d?async=1", i%6), bodies[i%len(bodies)], &acc)
			if rec.Code != http.StatusAccepted {
				t.Errorf("async post %d = %d %q", i, rec.Code, rec.Body.String())
				return
			}
			statusURLs <- acc.StatusURL
		}
	}()

	// Readers: the four seed runs r0..r3 are never written, so the
	// analytic endpoints must answer 200 throughout the churn.
	var readers sync.WaitGroup
	for g, target := range []string{
		"/v1/specs/pa/cluster?k=2&seed=1",
		"/v1/specs/pa/nearest?run=r0&k=2",
		"/v1/specs/pa/diff/r0/r1",
	} {
		readers.Add(1)
		go func(g int, target string) {
			defer readers.Done()
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				if rec := do(t, srv, "GET", target, nil, nil); rec.Code != http.StatusOK {
					t.Errorf("reader %d: %s = %d %q", g, target, rec.Code, rec.Body.String())
					return
				}
			}
		}(g, target)
	}

	<-entered
	waitQueued(t, srv, 2)
	release()
	writers.Wait()
	close(writersDone)
	readers.Wait()

	// Settle: every async ticket resolves committed (the bodies were
	// valid, so the only acceptable terminal state is success).
	for url := range statusURLs {
		if view := pollTicket(t, srv, url); view.State != ingest.StateCommitted {
			t.Errorf("ticket %s resolved %q: %+v", url, view.State, view)
		}
	}

	// The pipeline's books must balance once quiet: everything
	// enqueued either committed or failed, nothing stuck in the queue.
	ps := srv.Stats().Ingest
	if ps.Enqueued != ps.Committed+ps.Failed {
		t.Errorf("ingest accounting: enqueued %d != committed %d + failed %d", ps.Enqueued, ps.Committed, ps.Failed)
	}
	if ps.Failed != 0 {
		t.Errorf("ingest failed count = %d, want 0", ps.Failed)
	}
	if ps.QueueDepth != 0 {
		t.Errorf("queue depth after settle = %d, want 0", ps.QueueDepth)
	}
	if ps.MaxBatch < 2 {
		t.Errorf("largest batch = %d jobs, want >= 2", ps.MaxBatch)
	}

	// Final consistency read, then shutdown refuses new work.
	if rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2&seed=1", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("settled cluster = %d %q", rec.Code, rec.Body.String())
	}
	srv.Close()
	rec := do(t, srv, "POST", "/v1/specs/pa/runs/late", bodies[0], nil)
	wantEnvelope(t, rec, http.StatusServiceUnavailable, "unavailable")
}
