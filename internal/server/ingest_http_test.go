package server

// HTTP-level contract of the async ingest mode: 202 + ticket on
// accept, poll-to-committed at /v1/tickets/{id}, per-run failures
// resolved on the ticket rather than lost.

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
)

type acceptedJSON struct {
	Ticket    string `json:"ticket"`
	Spec      string `json:"spec"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
}

// pollTicket polls a ticket status URL until it leaves pending.
func pollTicket(t *testing.T, srv *Server, statusURL string) ingest.View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var view ingest.View
		if rec := do(t, srv, "GET", statusURL, nil, &view); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d %q", statusURL, rec.Code, rec.Body.String())
		}
		if view.State != ingest.StatePending {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticket %s still pending after 10s", statusURL)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAsyncIngestTicketRoundTrip(t *testing.T) {
	srv, st := seedServer(t, 1, Options{})
	body := encodeRun(t, st, 801)

	var acc acceptedJSON
	rec := do(t, srv, "POST", "/v1/specs/pa/runs/az?async=1", body, &acc)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async import = %d %q", rec.Code, rec.Body.String())
	}
	if acc.Ticket == "" || acc.State != ingest.StatePending || acc.Spec != "pa" {
		t.Fatalf("accept payload: %+v", acc)
	}
	if want := "/v1/tickets/" + acc.Ticket; acc.StatusURL != want || rec.Header().Get("Location") != want {
		t.Fatalf("status url %q / Location %q, want %q", acc.StatusURL, rec.Header().Get("Location"), want)
	}

	view := pollTicket(t, srv, acc.StatusURL)
	if view.State != ingest.StateCommitted || view.Total != 1 || view.Done != 1 {
		t.Fatalf("resolved view: %+v", view)
	}
	if len(view.Runs) != 1 || view.Runs[0].Run != "az" || view.Runs[0].State != ingest.StateCommitted || view.Runs[0].Nodes == 0 {
		t.Fatalf("run status: %+v", view.Runs)
	}

	var runs struct {
		Runs []string `json:"runs"`
	}
	do(t, srv, "GET", "/v1/specs/pa/runs", nil, &runs)
	if !contains(runs.Runs, "az") {
		t.Fatalf("committed run az missing from listing %v", runs.Runs)
	}
}

func TestAsyncIngestMalformedDocumentFailsTicket(t *testing.T) {
	srv, _ := seedServer(t, 0, Options{})
	var acc acceptedJSON
	rec := do(t, srv, "POST", "/v1/specs/pa/runs/bad?async=1", []byte("<not-a-run>"), &acc)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async import = %d %q", rec.Code, rec.Body.String())
	}
	view := pollTicket(t, srv, acc.StatusURL)
	if view.State != ingest.StateFailed {
		t.Fatalf("ticket state = %q, want failed (%+v)", view.State, view)
	}
	if len(view.Runs) != 1 || view.Runs[0].Error == "" {
		t.Fatalf("run status lacks the parse error: %+v", view.Runs)
	}
}

func TestAsyncBulkImportOneTicket(t *testing.T) {
	srv, st := seedServer(t, 0, Options{})
	tarBody, names := bulkTar(t, st, 3, 803, "qb")

	var acc acceptedJSON
	rec := do(t, srv, "POST", "/v1/specs/pa/runs:bulk?async=1", tarBody, &acc)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async bulk = %d %q", rec.Code, rec.Body.String())
	}
	view := pollTicket(t, srv, acc.StatusURL)
	if view.State != ingest.StateCommitted || view.Total != len(names) || view.Done != len(names) {
		t.Fatalf("resolved view: %+v", view)
	}
	var runs struct {
		Runs []string `json:"runs"`
	}
	do(t, srv, "GET", "/v1/specs/pa/runs", nil, &runs)
	for _, name := range names {
		if !contains(runs.Runs, name) {
			t.Errorf("bulk run %s missing from listing %v", name, runs.Runs)
		}
	}
}

// TestSyncIngestPartialBatchErrors: jobs batched together fail and
// succeed individually — one malformed document in a coalesced batch
// must not poison its batchmates.
func TestSyncIngestPartialBatchErrors(t *testing.T) {
	gate := &ledgerGate{Backend: fsBackend(t, t.TempDir())}
	srv, st := seedServerOn(t, gate, 0, Options{IngestBatch: 2})

	type result struct {
		code int
		body string
	}
	results := make(chan result, 3)
	post := func(name string, body []byte) {
		rec := do(t, srv, "POST", "/v1/specs/pa/runs/"+name, body, nil)
		results <- result{rec.Code, rec.Body.String()}
	}
	// Hold the blocker's commit while ok and broken queue behind it.
	entered, release := gate.arm()
	go post("blocker", encodeRun(t, st, 803))
	<-entered
	go post("ok", encodeRun(t, st, 804))
	go post("broken", []byte("<garbage"))
	waitQueued(t, srv, 2)
	release()
	a, b, c := <-results, <-results, <-results
	codes := []int{a.code, b.code, c.code}
	if !(count(codes, http.StatusCreated) == 2 && count(codes, http.StatusBadRequest) == 1) {
		t.Fatalf("codes = %v (%q / %q / %q), want two 201 and one 400", codes, a.body, b.body, c.body)
	}
	if ps := srv.ingest.Stats(); ps.MaxBatch != 2 {
		t.Fatalf("largest batch = %d jobs, want ok and broken in one batch", ps.MaxBatch)
	}
	var runs struct {
		Runs []string `json:"runs"`
	}
	do(t, srv, "GET", "/v1/specs/pa/runs", nil, &runs)
	if !contains(runs.Runs, "ok") || contains(runs.Runs, "broken") {
		t.Fatalf("stored runs %v, want ok and not broken", runs.Runs)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func count(xs []int, want int) int {
	n := 0
	for _, x := range xs {
		if x == want {
			n++
		}
	}
	return n
}

// TestTicketIDShape pins the capability-style identifier: opaque,
// unguessable, never a small integer a client might enumerate.
func TestTicketIDShape(t *testing.T) {
	srv, st := seedServer(t, 0, Options{})
	body := encodeRun(t, st, 805)
	var acc acceptedJSON
	do(t, srv, "POST", "/v1/specs/pa/runs/shape?async=1", body, &acc)
	if !strings.HasPrefix(acc.Ticket, "t") || len(acc.Ticket) != 25 {
		t.Fatalf("ticket id %q, want t + 24 hex chars", acc.Ticket)
	}
	pollTicket(t, srv, acc.StatusURL) // drain before TempDir cleanup
}
