package server

// Acceptance test for the provenance ledger surface: after a mixed
// sync / async / bulk ingest, every run's inclusion proof must verify
// client-side against the ledger commitments published in /v1/stats —
// and keep verifying across a cold restart and a forced compaction.

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/store"
)

// proofFor fetches one run's proof and verifies it client-side,
// returning the proof and the ledger head it folds up to.
func proofFor(t *testing.T, srv *Server, spec, run string) (store.RunProof, string) {
	t.Helper()
	var p store.RunProof
	rec := do(t, srv, "GET", fmt.Sprintf("/v1/specs/%s/runs/%s/proof", spec, run), nil, &p)
	if rec.Code != http.StatusOK {
		t.Fatalf("proof %s/%s = %d %q", spec, run, rec.Code, rec.Body.String())
	}
	head, err := store.VerifyProof(&p)
	if err != nil {
		t.Fatalf("proof %s/%s does not verify: %v", spec, run, err)
	}
	return p, head
}

// statsLedger fetches /v1/stats and cross-checks the published
// repository root against one recomputed from the per-spec heads.
func statsLedger(t *testing.T, srv *Server) ledgerStats {
	t.Helper()
	var stats statsPayload
	if rec := do(t, srv, "GET", "/v1/stats", nil, &stats); rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	names := make([]string, 0, len(stats.Ledger.Specs))
	heads := make(map[string]ledger.Hash, len(stats.Ledger.Specs))
	for name, sl := range stats.Ledger.Specs {
		h, err := ledger.Parse(sl.Head)
		if err != nil {
			t.Fatalf("stats ledger head for %s: %v", name, err)
		}
		names = append(names, name)
		heads[name] = h
	}
	sort.Strings(names)
	if got := ledger.RepoRoot(names, heads).Hex(); got != stats.Ledger.RepoRoot {
		t.Fatalf("repo root recomputed from stats heads = %s, published %s", got, stats.Ledger.RepoRoot)
	}
	return stats.Ledger
}

func TestProofsVerifyAcrossIngestRestartCompaction(t *testing.T) {
	dir := t.TempDir()
	srv, st := seedServerOn(t, fsBackend(t, dir), 0, Options{})

	var runs []string

	// Sync ingest: the 201 body carries the content hash.
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		var body map[string]any
		rec := do(t, srv, "POST", "/v1/specs/pa/runs/"+name, encodeRun(t, st, 900+int64(i)), &body)
		if rec.Code != http.StatusCreated {
			t.Fatalf("sync ingest %s = %d %q", name, rec.Code, rec.Body.String())
		}
		if h, _ := body["hash"].(string); len(h) != 64 {
			t.Fatalf("201 body for %s: hash = %q, want 64 hex chars", name, body["hash"])
		}
		runs = append(runs, name)
	}

	// Async ingest: the resolved ticket surfaces the content hash.
	var acc acceptedJSON
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs/a0?async=1", encodeRun(t, st, 910), &acc); rec.Code != http.StatusAccepted {
		t.Fatalf("async ingest = %d %q", rec.Code, rec.Body.String())
	}
	view := pollTicket(t, srv, acc.StatusURL)
	if view.State != ingest.StateCommitted {
		t.Fatalf("async ticket state = %q, want committed", view.State)
	}
	for _, rs := range view.Runs {
		if len(rs.Hash) != 64 {
			t.Fatalf("ticket run %s: hash = %q, want 64 hex chars", rs.Run, rs.Hash)
		}
	}
	runs = append(runs, "a0")

	// Bulk ingest.
	archive, bulkNames := bulkTar(t, st, 4, 920, "b")
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs:bulk", archive, nil); rec.Code != http.StatusCreated {
		t.Fatalf("bulk ingest = %d %q", rec.Code, rec.Body.String())
	}
	runs = append(runs, bulkNames...)

	// verifyAll checks every proof against the stats commitments and
	// returns the proofs for later byte-level comparison.
	verifyAll := func(s *Server, phase string) map[string]store.RunProof {
		t.Helper()
		led := statsLedger(t, s)
		proofs := make(map[string]store.RunProof, len(runs))
		for _, name := range runs {
			p, head := proofFor(t, s, "pa", name)
			if head != led.Specs["pa"].Head {
				t.Fatalf("%s: proof for %s anchors to head %s, stats publish %s",
					phase, name, head, led.Specs["pa"].Head)
			}
			proofs[name] = p
		}
		return proofs
	}
	verifyAll(srv, "initial")

	// Cold restart over the same directory.
	srv.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(st2, Options{})
	defer srv2.Close()
	verifyAll(srv2, "restart")

	// Overwrite one run with new content (dead bytes in the segment),
	// then force a compaction. Proofs are ledger derivations, so the
	// untouched runs' proofs must come back byte-identical.
	if rec := do(t, srv2, "POST", "/v1/specs/pa/runs/s0", encodeRun(t, st2, 930), nil); rec.Code != http.StatusCreated {
		t.Fatalf("overwrite s0 = %d", rec.Code)
	}
	before := verifyAll(srv2, "pre-compaction")
	if err := st2.Compact("pa"); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := verifyAll(srv2, "post-compaction")
	for _, name := range runs {
		if !reflect.DeepEqual(before[name], after[name]) {
			t.Errorf("proof for %s changed across compaction:\nbefore %+v\nafter  %+v",
				name, before[name], after[name])
		}
	}

	// The full ledger audit stays green through all of it.
	rep, err := st2.VerifyLedger()
	if err != nil {
		t.Fatalf("VerifyLedger: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("ledger audit found issues: %v", rep.Issues)
	}
}
