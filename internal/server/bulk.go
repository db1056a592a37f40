package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/ingest"
	"repro/internal/store"
)

// maxBulkBytes bounds a whole bulk-import request body; individual
// documents stay bounded by the per-document import limit.
const maxBulkBytes = 256 << 20

// bulkRunJSON is one NDJSON line of a streaming bulk import.
type bulkRunJSON struct {
	Name string `json:"name"`
	XML  string `json:"xml"`
}

// handleBulkImport ingests a whole cohort in one request:
//
//	POST /v1/specs/{spec}/runs:bulk
//
// The body is either a tar archive of <run>.xml files (any layout;
// names come from the base filename) or, with Content-Type
// application/x-ndjson, a stream of {"name":…,"xml":…} lines. By
// default all documents are parsed and derived concurrently through
// the store's bulk path and written with their snapshot frames as one
// commit, which advances the spec's run-set version once — so however
// many runs arrive, the cohort matrices resync exactly once. With ?async=1 the parsed batch is instead fanned onto the
// group-commit pipeline under one ticket and the response is 202 +
// the ticket to poll.
func (s *Server) handleBulkImport(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec")
	if !ok {
		return
	}
	specName := ns[0]
	if _, err := s.st.LoadSpec(specName); err != nil {
		s.storeError(w, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBulkBytes)
	var (
		runs []store.RunData
		err  error
	)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/x-ndjson") || strings.HasPrefix(ct, "application/jsonl") {
		runs, err = readRunNDJSON(body)
	} else {
		runs, err = store.ReadRunTar(body, s.maxImportBytes(), maxBulkBytes)
	}
	if err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	if len(runs) == 0 {
		s.httpError(w, fmt.Errorf("bulk import carried no runs"), http.StatusBadRequest)
		return
	}
	if s.query(r).flag("async") {
		s.asyncBulkImport(w, specName, runs)
		return
	}
	stats, err := s.st.ImportRuns(specName, runs, 0)
	if err != nil {
		// Partial imports report what landed inside the envelope.
		s.errCount.Add(1)
		w.Header().Set("Content-Type", "application/json")
		code := errorStatus(err)
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(errorEnvelope{Error: errorDetail{
			Code:     errorCode(code),
			Message:  err.Error(),
			Imported: stats.Imported,
		}})
		return
	}
	// Content-Type must precede WriteHeader or it is dropped.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	s.writeJSON(w, map[string]any{
		"spec":     specName,
		"imported": len(stats.Imported),
		"runs":     stats.Imported,
		"nodes":    stats.Nodes,
		"edges":    stats.Edges,
	})
}

// asyncBulkImport enqueues a whole bulk batch under one ticket. A
// duplicate name is a 409 up front (one ticket entry per run); if the
// queue fills midway the remaining runs resolve failed on the ticket
// rather than blocking — the client asked for fire-and-poll.
func (s *Server) asyncBulkImport(w http.ResponseWriter, specName string, runs []store.RunData) {
	names := make([]string, len(runs))
	seen := make(map[string]bool, len(runs))
	for i, rd := range runs {
		if seen[rd.Name] {
			s.httpError(w, fmt.Errorf("run %q appears twice in bulk import: %w", rd.Name, store.ErrDuplicateRun), http.StatusConflict)
			return
		}
		seen[rd.Name] = true
		names[i] = rd.Name
	}
	t := s.tickets.New(specName, names)
	for i, rd := range runs {
		if err := s.ingest.Enqueue(&ingest.Job{Spec: specName, Run: rd.Name, XML: rd.XML, Ticket: t}); err != nil {
			if i == 0 {
				// Nothing in flight yet: refuse the whole request so the
				// client can simply retry it.
				for _, name := range names {
					t.Fail(name, err)
				}
				s.enqueueError(w, err)
				return
			}
			t.Fail(rd.Name, err)
		}
	}
	s.writeTicketAccepted(w, t)
}

// readRunNDJSON collects runs from an NDJSON stream.
func readRunNDJSON(r io.Reader) ([]store.RunData, error) {
	sc := bufio.NewScanner(r)
	// Headroom above the per-run XML limit: JSON escaping can more
	// than double the document, plus the envelope fields.
	sc.Buffer(make([]byte, 64<<10), 2*defaultMaxImportBytes+(1<<20))
	var runs []store.RunData
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec bulkRunJSON
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("ndjson line %d: %w", line, err)
		}
		if err := store.ValidateName(rec.Name); err != nil {
			return nil, fmt.Errorf("ndjson line %d: %w", line, err)
		}
		if rec.XML == "" {
			return nil, fmt.Errorf("ndjson line %d: empty xml", line)
		}
		runs = append(runs, store.RunData{Name: rec.Name, XML: []byte(rec.XML)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	return runs, nil
}

// handleExport streams a specification and all its runs as a tar
// archive — the inverse of runs:bulk, suitable for piping straight
// back into another service instance:
//
//	GET /specs/{spec}/export
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec")
	if !ok {
		return
	}
	if _, err := s.st.LoadSpec(ns[0]); err != nil {
		s.storeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-tar")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", ns[0]+".tar"))
	tw := &trackedWriter{Writer: w}
	if err := s.st.ExportSpec(ns[0], nil, tw); err != nil {
		if !tw.wrote {
			w.Header().Del("Content-Disposition")
			s.storeError(w, err)
			return
		}
		// A tar cut at an entry boundary reads as a clean, shorter
		// archive, so abort the response: the client sees a transport
		// error, never a 200 with runs missing.
		s.errCount.Add(1)
		panic(http.ErrAbortHandler)
	}
}

// trackedWriter records whether anything has been written through it.
type trackedWriter struct {
	io.Writer
	wrote bool
}

func (t *trackedWriter) Write(p []byte) (int, error) {
	t.wrote = true
	return t.Writer.Write(p)
}

// Warm builds the incremental cohort (and thus the engine
// shards and parsed-run rows) for every specification under the unit
// cost model — the provserved boot path after Store.PreloadAll, so
// the first analytics request of every spec is served from a warm
// cohort instead of paying the full build inline.
func (s *Server) Warm() error {
	specs, err := s.st.ListSpecs()
	if err != nil {
		return err
	}
	for _, name := range specs {
		names, err := s.st.ListRuns(name)
		if err != nil {
			return err
		}
		if len(names) < 2 {
			continue
		}
		if _, _, err := s.cohortView(name, cost.Unit{}, analysis.Options{}); err != nil {
			return err
		}
	}
	return nil
}
