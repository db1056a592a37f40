package server

// Group-commit ingest wiring. Single-run imports no longer call
// store.SaveRun inline: the handler validates at the boundary, reads
// the body, and enqueues a job on the internal/ingest pipeline. The
// batcher drains the queue into batches and hands them to commitBatch
// below, which parses every document concurrently and commits each
// spec's runs through store.ImportParsed — one fsynced segment
// append and one fsynced ledger append per batch, however many
// clients were importing at once.
//
// Synchronous clients (the default) park on the job's response
// channel and still see today's request/response contract: 201 with
// {spec, run, nodes, edges}, per-item errors individual. Asynchronous
// clients (?async=1) get 202 with a ticket resolvable at
// GET /v1/tickets/{id}. A full queue answers 429 + Retry-After.

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/store"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// newIngest builds the server's pipeline from its options.
func (s *Server) newIngest() *ingest.Pipeline {
	return ingest.New(s.commitBatch, ingest.Options{
		QueueDepth: s.opts.IngestQueue,
		BatchSize:  s.opts.IngestBatch,
	})
}

// Close drains the ingest pipeline: every queued import is committed
// and the batcher exits. On graceful shutdown call Close after the
// HTTP listener stops accepting requests and before the store goes
// away. The server keeps answering reads afterwards; new imports get
// 503.
func (s *Server) Close() {
	s.ingest.Close()
}

// handleIngest serves POST /v1/specs/{spec}/runs[/{run}]. Both URL
// shapes — run named by path value or by ?name= — validate spec and
// run names at the boundary, BEFORE the body is read.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	specName := r.PathValue("spec")
	if err := store.ValidateName(specName); err != nil {
		s.httpError(w, fmt.Errorf("spec: %w", err), http.StatusBadRequest)
		return
	}
	runName := r.PathValue("run")
	if runName == "" {
		runName = r.URL.Query().Get("name")
	}
	if err := store.ValidateName(runName); err != nil {
		s.httpError(w, fmt.Errorf("run: %w", err), http.StatusBadRequest)
		return
	}
	if _, err := s.st.LoadSpec(specName); err != nil {
		s.storeError(w, err)
		return
	}
	t0 := time.Now()
	body, ok := s.readBody(w, r)
	observeStage(r.Context(), stageParse, t0)
	if !ok {
		return
	}
	if s.query(r).flag("async") {
		t := s.tickets.New(specName, []string{runName})
		if err := s.ingest.Enqueue(&ingest.Job{Spec: specName, Run: runName, XML: body, Ticket: t}); err != nil {
			t.Fail(runName, err)
			s.enqueueError(w, err)
			return
		}
		s.writeTicketAccepted(w, t)
		return
	}
	job := &ingest.Job{Spec: specName, Run: runName, XML: body, Resp: make(chan ingest.Result, 1)}
	if err := s.ingest.Enqueue(job); err != nil {
		s.enqueueError(w, err)
		return
	}
	// Park until the batch carrying this job commits. The batcher
	// always delivers (Close drains), so no context select is needed;
	// a client that hangs up simply never reads the response. The
	// batch's decode of this document is parse time; the rest of the
	// wait is the commit's.
	t0 = time.Now()
	res := <-job.Resp
	wait := time.Since(t0)
	parse := min(res.Parse, wait)
	chargeStage(r.Context(), stageParse, parse)
	chargeStage(r.Context(), stageStore, wait-parse)
	if res.Err != nil {
		s.httpError(w, res.Err, ingestStatus(res.Err))
		return
	}
	// Content-Type must precede WriteHeader or it is dropped.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	body201 := map[string]any{
		"spec": specName, "run": runName,
		"nodes": res.Nodes, "edges": res.Edges,
	}
	if res.Hash != "" {
		body201["hash"] = res.Hash
	}
	s.writeJSON(w, body201)
}

// enqueueError reports a job the pipeline would not take: 429 with a
// Retry-After hint under backpressure, 503 during shutdown.
func (s *Server) enqueueError(w http.ResponseWriter, err error) {
	code := ingestStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	s.httpError(w, err, code)
}

// writeTicketAccepted answers an async ingest with 202 and the
// polling location.
func (s *Server) writeTicketAccepted(w http.ResponseWriter, t *ingest.Ticket) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/tickets/"+t.ID)
	w.WriteHeader(http.StatusAccepted)
	s.writeJSON(w, map[string]any{
		"ticket":     t.ID,
		"spec":       t.Spec,
		"state":      ingest.StatePending,
		"status_url": "/v1/tickets/" + t.ID,
	})
}

// handleTicket serves GET /v1/tickets/{id}.
func (s *Server) handleTicket(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.tickets.Get(id)
	if !ok {
		s.httpError(w, fmt.Errorf("unknown ticket %q (resolved tickets are retained for a bounded window)", id), http.StatusNotFound)
		return
	}
	s.writeJSON(w, t.Snapshot())
}

// commitBatch is the pipeline's CommitFunc. Parse errors are
// per-item: one malformed document fails only its own job, unlike the
// all-or-nothing runs:bulk endpoint. Commit errors from the store are
// wrapped as commitError so they surface as 500s; a store commit is
// all-or-nothing, so a failed one fails every job of its wave.
func (s *Server) commitBatch(jobs []*ingest.Job) []ingest.Result {
	results := make([]ingest.Result, len(jobs))
	parsed := make([]*wfrun.Run, len(jobs))

	// Parse phase: concurrent across the batch; spec objects come from
	// the store's cache after the first load.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				sp, err := s.st.LoadSpec(jobs[i].Spec)
				if err != nil {
					results[i].Err = err
					continue
				}
				t0 := time.Now()
				r, err := wfxml.DecodeRun(bytes.NewReader(jobs[i].XML), sp)
				results[i].Parse = time.Since(t0)
				if err != nil {
					results[i].Err = err
					continue
				}
				parsed[i] = r
			}
		}()
	}
	wg.Wait()

	// Commit phase: group the surviving jobs by spec in arrival
	// order. A name repeated within one group is split into
	// sequential "waves" — each wave is a duplicate-free group commit,
	// and committing the waves in order preserves the last-write-wins
	// outcome sequential imports would have produced.
	var specOrder []string
	bySpec := make(map[string][]int)
	for i, j := range jobs {
		if results[i].Err != nil {
			continue
		}
		if _, ok := bySpec[j.Spec]; !ok {
			specOrder = append(specOrder, j.Spec)
		}
		bySpec[j.Spec] = append(bySpec[j.Spec], i)
	}
	for _, specName := range specOrder {
		pending := bySpec[specName]
		for len(pending) > 0 {
			inWave := make(map[string]bool, len(pending))
			var wave, rest []int
			for _, i := range pending {
				if inWave[jobs[i].Run] {
					rest = append(rest, i)
					continue
				}
				inWave[jobs[i].Run] = true
				wave = append(wave, i)
			}
			prs := make([]store.ParsedRun, len(wave))
			for k, i := range wave {
				prs[k] = store.ParsedRun{Name: jobs[i].Run, Run: parsed[i]}
			}
			stats, err := s.st.ImportParsed(specName, prs)
			for k, i := range wave {
				if err != nil {
					results[i].Err = commitError{err}
					continue
				}
				results[i].Nodes, results[i].Edges = parsed[i].NumNodes(), parsed[i].NumEdges()
				results[i].Hash = stats.Hashes[k]
			}
			pending = rest
		}
	}
	return results
}
