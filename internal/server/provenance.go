package server

// Provenance ledger surface: per-run Merkle inclusion proofs. The
// matching commitments — per-spec ledger heads and the repository
// root — are published in /v1/stats, so a client can verify a proof
// end to end without trusting this server: fold the leaf up the
// sibling path to the batch root, chain prev + root + later roots to
// the head, and compare against the published head.

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/store"
)

// handleProof serves GET /v1/specs/{spec}/runs/{run}/proof.
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	specName := r.PathValue("spec")
	if err := store.ValidateName(specName); err != nil {
		s.httpError(w, fmt.Errorf("spec: %w", err), http.StatusBadRequest)
		return
	}
	runName := r.PathValue("run")
	if err := store.ValidateName(runName); err != nil {
		s.httpError(w, fmt.Errorf("run: %w", err), http.StatusBadRequest)
		return
	}
	t0 := time.Now()
	p, err := s.st.RunProof(specName, runName)
	if err != nil {
		observeStage(r.Context(), stageLedger, t0)
		s.storeError(w, err)
		return
	}
	// Self-check before serving: a proof that does not fold to its own
	// head would only confuse clients — better a loud 500 here.
	_, verr := store.VerifyProof(p)
	observeStage(r.Context(), stageLedger, t0)
	if verr != nil {
		s.httpError(w, verr, http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, p)
}
