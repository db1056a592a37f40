package server

// Uniform JSON error envelope: every endpoint reports failures as
//
//	{"error":{"code":"not_found","message":"..."}}
//
// with the code derived from the HTTP status, so clients can switch
// on a stable machine-readable string instead of parsing messages.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"

	"repro/internal/ingest"
	"repro/internal/store"
)

// errorEnvelope is the uniform error body.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Imported lists the runs a partially failed bulk import DID land
	// before the error (they are on disk and announced).
	Imported []string `json:"imported,omitempty"`
}

// errorCode maps an HTTP status onto the envelope's stable code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	default:
		if status >= 500 {
			return "internal"
		}
		return "bad_request"
	}
}

// httpError writes the error envelope for the given status.
func (s *Server) httpError(w http.ResponseWriter, err error, code int) {
	s.errCount.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(errorEnvelope{Error: errorDetail{Code: errorCode(code), Message: err.Error()}})
}

// storeError maps store-layer errors onto statuses: missing
// specs/runs are 404, duplicate names in a batch 409, everything else
// a caller can fix is 400.
func (s *Server) storeError(w http.ResponseWriter, err error) {
	s.httpError(w, err, storeStatus(err))
}

func storeStatus(err error) int {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, store.ErrDuplicateRun):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// commitError tags a storage-side failure of a batched ingest commit:
// the document was fine but the repository write was not, which is
// the service's fault (500), not the client's (400).
type commitError struct{ err error }

func (e commitError) Error() string { return e.err.Error() }
func (e commitError) Unwrap() error { return e.err }

// ingestStatus maps a pipeline result error (or enqueue error) onto a
// status: client-side document problems 400/404/409/413, backpressure
// 429, shutdown 503, storage faults 500.
func ingestStatus(err error) int {
	var tooBig *http.MaxBytesError
	var ce commitError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ingest.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ingest.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, fs.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, store.ErrDuplicateRun):
		return http.StatusConflict
	case errors.As(err, &ce):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// muxErrorWriter rewrites the mux's own plain-text error responses
// (unknown path, method mismatch) into the JSON envelope. ServeHTTP
// installs it on every request, so the mux matches each request once;
// instrument unwraps it before a routed handler runs, so handler
// output never passes through it.
type muxErrorWriter struct {
	w       http.ResponseWriter
	s       *Server
	written bool // the envelope has replaced the mux's response
}

func (m *muxErrorWriter) Header() http.Header { return m.w.Header() }

func (m *muxErrorWriter) WriteHeader(code int) {
	if code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
		m.w.WriteHeader(code) // the mux's own redirects pass through
		return
	}
	if m.written {
		return
	}
	m.written = true
	msg := "no such route"
	if code == http.StatusMethodNotAllowed {
		msg = "method not allowed"
		if allow := m.w.Header().Get("Allow"); allow != "" {
			msg = "method not allowed (allowed: " + allow + ")"
		}
	}
	m.w.Header().Del("X-Content-Type-Options")
	m.s.httpError(m.w, errors.New(msg), code)
}

func (m *muxErrorWriter) Write(p []byte) (int, error) {
	if m.written {
		return len(p), nil // the plain-text body is replaced by the envelope
	}
	return m.w.Write(p)
}

// readBody drains a request body under the per-document size limit,
// translating the limiter's error into the 413 envelope.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxImportBytes()))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.httpError(w, fmt.Errorf("run document exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		} else {
			s.httpError(w, err, http.StatusBadRequest)
		}
		return nil, false
	}
	return body, true
}
