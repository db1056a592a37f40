package server

// Consolidated query-parameter decoding. Every handler builds one
// reqQuery, pulls its typed parameters off it, and finishes with
// valid(w): the first malformed parameter — whichever handler it hits
// — produces the same 400 envelope naming the parameter. Before this
// helper each handler formatted its own errors, and the same bad ?k=
// read differently on /cluster than on /outliers.

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/cost"
	"repro/internal/store"
)

type reqQuery struct {
	s   *Server
	r   *http.Request
	err error
}

// query starts decoding the request's query parameters.
func (s *Server) query(r *http.Request) *reqQuery {
	return &reqQuery{s: s, r: r}
}

// fail records the first decode error; later parameters still return
// their defaults so handlers can decode unconditionally.
func (q *reqQuery) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// valid finishes decoding: a recorded error writes the 400 envelope
// and reports false.
func (q *reqQuery) valid(w http.ResponseWriter) bool {
	if q.err != nil {
		q.s.httpError(w, q.err, http.StatusBadRequest)
		return false
	}
	return true
}

// cost decodes ?cost= (unit | length | power:EPS; default unit).
func (q *reqQuery) cost() cost.Model {
	name := q.r.URL.Query().Get("cost")
	if name == "" {
		name = "unit"
	}
	m, err := cost.Parse(name)
	if err != nil {
		q.fail(fmt.Errorf("cost: %w", err))
		return cost.Unit{}
	}
	return m
}

// intVal decodes an optional integer parameter (?k=, ?seed=).
func (q *reqQuery) intVal(name string, def int) int {
	v := q.r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		q.fail(fmt.Errorf("%s: %q is not an integer", name, v))
		return def
	}
	return n
}

// seed decodes ?seed= (default 1).
func (q *reqQuery) seed() int64 {
	return int64(q.intVal("seed", 1))
}

// name decodes a required name-valued parameter (?run=, ?name=),
// validated at the boundary.
func (q *reqQuery) name(param string) string {
	v := q.r.URL.Query().Get(param)
	if err := store.ValidateName(v); err != nil {
		q.fail(fmt.Errorf("%s: %w", param, err))
		return ""
	}
	return v
}

// optionalName decodes a name-valued parameter that may be absent
// (?across=); when present it is validated like name.
func (q *reqQuery) optionalName(param string) string {
	v := q.r.URL.Query().Get(param)
	if v == "" {
		return ""
	}
	if err := store.ValidateName(v); err != nil {
		q.fail(fmt.Errorf("%s: %w", param, err))
		return ""
	}
	return v
}

// flag decodes a presence-style boolean parameter (?exact=1,
// ?stream=1, ?async=1): any non-empty value is true.
func (q *reqQuery) flag(name string) bool {
	return q.r.URL.Query().Get(name) != ""
}
