package main

// The three op shapes and their answer checks. An op fails on a
// transport error, a non-2xx status, an undecodable reply, or a
// wrong answer found by the checks after the run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// nearestK is the k of every nearest query.
const nearestK = 5

type opResult struct {
	Lat time.Duration
	OK  bool
	Err string
}

type neighbor struct {
	Run      string  `json:"run"`
	Distance float64 `json:"distance"`
}

type nearestAnswer struct {
	Run       string     `json:"run"`
	Neighbors []neighbor `json:"neighbors"`
}

// session is one run's traffic against one service.
type session struct {
	w       workload
	seconds int
	tr      *traffic
	t       *tracer
	client  *client
	events  [][2][]byte // cohort-window event bodies, encoded before timing

	results []opResult
	wall    time.Duration

	nearest map[int][]nearestAnswer // checked op → its nearest replies
	acked   []int                   // ingest-fs: ops answered 201
}

func newSession(w workload, seconds int, tr *traffic, t *tracer) (*session, error) {
	s := &session{w: w, seconds: seconds, tr: tr, t: t, nearest: map[int][]nearestAnswer{}}
	for _, ev := range tr.Events {
		a, err := json.Marshal(ev[0])
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(ev[1])
		if err != nil {
			return nil, err
		}
		s.events = append(s.events, [2][]byte{a, b})
	}
	return s, nil
}

// drive runs the fixed op sequence in order on one client.
func (s *session) drive(base string) {
	s.client = newClient(base, s.t)
	s.results = make([]opResult, s.tr.Ops)
	start := time.Now()
	for k := range s.results {
		s.results[k] = s.op(s.client, k)
	}
	s.wall = time.Since(start)
	s.client.close()
}

func (s *session) op(c *client, k int) opResult {
	var span uint64
	start := time.Now()
	if s.t != nil {
		span = s.t.newID()
		defer func() { s.t.record(span, 0, "op."+s.w.name, start, time.Now()) }()
	}
	var lat time.Duration
	call := func(route, method, path string, body []byte, want int) (reply, error) {
		rep, err := c.do(span, route, method, path, body)
		if err != nil {
			return rep, err
		}
		lat += rep.Lat
		if rep.Status != want {
			return rep, fmt.Errorf("%s %s: status %d: %.200s", method, path, rep.Status, rep.Body)
		}
		return rep, nil
	}
	var err error
	switch s.w.name {
	case "ingest-fs":
		err = s.ingestOp(k, call)
	case "cohort-window":
		err = s.cohortOp(k, call)
	case "nearest-indexed":
		err = s.nearestOp(k, call, fmt.Sprintf("f%05d", s.tr.Queries[k]), "&k=5")
	}
	if err != nil {
		return opResult{Lat: lat, Err: err.Error()}
	}
	return opResult{Lat: lat, OK: true}
}

type caller func(route, method, path string, body []byte, want int) (reply, error)

func (s *session) ingestOp(k int, call caller) error {
	nr := s.tr.Fresh[k]
	if _, err := call("import", http.MethodPost, fmt.Sprintf("/v1/specs/%s/runs/%s", specName, nr.Name), nr.XML, http.StatusCreated); err != nil {
		return err
	}
	s.acked = append(s.acked, k)
	return nil
}

// cohortOp is one cohort-window cycle.
func (s *session) cohortOp(k int, call caller) error {
	name := s.tr.Fresh[k].Name
	events := fmt.Sprintf("/v1/specs/%s/runs/%s/events", specName, name)
	if _, err := call("live_events", http.MethodPatch, events, s.events[k][0], http.StatusOK); err != nil {
		return err
	}
	rep, err := call("live_events", http.MethodPatch, events+"?complete=1", s.events[k][1], http.StatusOK)
	if err != nil {
		return err
	}
	var done struct {
		Completed bool `json:"completed"`
	}
	if err := json.Unmarshal(rep.Body, &done); err != nil || !done.Completed {
		return fmt.Errorf("live run %s not completed: %.200s", name, rep.Body)
	}
	for i := 0; i < 2; i++ {
		if err := s.nearestOp(k, call, name, ""); err != nil {
			return err
		}
	}
	for _, route := range []string{"outliers", "outliers", "cluster", "cluster"} {
		if _, err := call(route, http.MethodGet, fmt.Sprintf("/v1/specs/%s/%s", specName, route), nil, http.StatusOK); err != nil {
			return err
		}
	}
	_, err = call("delete", http.MethodDelete, fmt.Sprintf("/v1/specs/%s/runs/%s", specName, s.tr.Deletes[k]), nil, http.StatusOK)
	return err
}

func (s *session) nearestOp(k int, call caller, run, extra string) error {
	rep, err := call("nearest", http.MethodGet, fmt.Sprintf("/v1/specs/%s/nearest?run=%s%s", specName, run, extra), nil, http.StatusOK)
	if err != nil {
		return err
	}
	var a nearestAnswer
	if err := json.Unmarshal(rep.Body, &a); err != nil {
		return fmt.Errorf("nearest reply: %w", err)
	}
	if len(a.Neighbors) != nearestK {
		return fmt.Errorf("nearest %s: %d neighbors, want %d", run, len(a.Neighbors), nearestK)
	}
	for i := 1; i < len(a.Neighbors); i++ {
		if a.Neighbors[i].Distance < a.Neighbors[i-1].Distance {
			return fmt.Errorf("nearest %s: neighbors out of order", run)
		}
	}
	if s.tr.Checked[k] {
		s.nearest[k] = append(s.nearest[k], a)
	}
	return nil
}

// --- answer checks ---------------------------------------------------

// parser parses run documents once each with the benchmark's own
// wfxml decode, independent of the service's caches and snapshots.
type parser struct {
	sp   *spec.Spec
	docs map[string][]byte
	runs map[string]*wfrun.Run
}

func newParser(sp *spec.Spec, sets ...[]namedRun) *parser {
	p := &parser{sp: sp, docs: map[string][]byte{}, runs: map[string]*wfrun.Run{}}
	for _, set := range sets {
		for _, nr := range set {
			p.docs[nr.Name] = nr.XML
		}
	}
	return p
}

func (p *parser) run(name string) (*wfrun.Run, error) {
	if r, ok := p.runs[name]; ok {
		return r, nil
	}
	doc, ok := p.docs[name]
	if !ok {
		return nil, fmt.Errorf("no generated document for run %s", name)
	}
	r, err := wfxml.DecodeRun(bytes.NewReader(doc), p.sp)
	if err != nil {
		return nil, err
	}
	p.runs[name] = r
	return r, nil
}

func (p *parser) distance(a, b string) (float64, error) {
	ra, err := p.run(a)
	if err != nil {
		return 0, err
	}
	rb, err := p.run(b)
	if err != nil {
		return 0, err
	}
	return core.Distance(ra, rb, cost.Unit{})
}

func sameDistance(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checkAnswers re-derives the sampled nearest answers of
// cohort-window and nearest-indexed and marks ops whose answers are
// wrong as failed. The benchmark's own parse diffs the query against
// every run stored when it was asked; the reply must name the queried
// run and list distinct stored runs at their exact distances, and
// those distances must be the k smallest.
func (s *session) checkAnswers() error {
	sp, fixture, err := fixtureRunsOf(s.w, s.seconds)
	if err != nil {
		return err
	}
	p := newParser(sp, fixture, s.tr.Fresh)
	fail := func(k int, format string, args ...any) {
		s.results[k].OK = false
		s.results[k].Err = fmt.Sprintf(format, args...)
	}
	for k, answers := range s.nearest {
		query := s.queryOf(k)
		dist := map[string]float64{}
		var sorted []float64
		for _, name := range s.cohortAt(fixture, k) {
			if name == query {
				continue
			}
			d, err := p.distance(query, name)
			if err != nil {
				return err
			}
			dist[name] = d
			sorted = append(sorted, d)
		}
		sort.Float64s(sorted)
		for _, ans := range answers {
			if ans.Run != query {
				fail(k, "nearest %s: reply names run %s", query, ans.Run)
				continue
			}
			seen := map[string]bool{}
			for i, nb := range ans.Neighbors {
				want, stored := dist[nb.Run]
				switch {
				case !stored || seen[nb.Run]:
					fail(k, "nearest %s: neighbor %s is the query, repeated or not stored", query, nb.Run)
				case !sameDistance(nb.Distance, want):
					fail(k, "nearest %s: neighbor %s at %v, core.Distance %v", query, nb.Run, nb.Distance, want)
				case !sameDistance(nb.Distance, sorted[i]):
					fail(k, "nearest %s: neighbor %d at %v, but the %d-th smallest distance is %v", query, i+1, nb.Distance, i+1, sorted[i])
				}
				seen[nb.Run] = true
			}
		}
	}
	return nil
}

// queryOf is the run op k's nearest queries ask about.
func (s *session) queryOf(k int) string {
	if s.w.name == "cohort-window" {
		return s.tr.Fresh[k].Name
	}
	return fmt.Sprintf("f%05d", s.tr.Queries[k])
}

// cohortAt lists the runs stored while op k runs its queries: the
// fixture and, in cohort-window, the fresh runs of cycles 0..k less
// the runs the earlier cycles deleted.
func (s *session) cohortAt(fixture []namedRun, k int) []string {
	stored := make(map[string]bool, len(fixture)+k+1)
	for _, nr := range fixture {
		stored[nr.Name] = true
	}
	if s.w.name == "cohort-window" {
		for i := 0; i <= k; i++ {
			stored[s.tr.Fresh[i].Name] = true
		}
		for i := 0; i < k; i++ {
			delete(stored, s.tr.Deletes[i])
		}
	}
	names := make([]string, 0, len(stored))
	for name := range stored {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// checkIngest reopens the repository after the service stopped:
// every acknowledged run must be listed and the ledger must verify.
func (s *session) checkIngest(dir string) error {
	st, err := store.OpenRepository(dir, "fs", 1)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	names, err := st.ListRuns(specName)
	if err != nil {
		return fmt.Errorf("list runs after reopen: %w", err)
	}
	listed := make(map[string]bool, len(names))
	for _, n := range names {
		listed[n] = true
	}
	for _, k := range s.acked {
		if !listed[s.tr.Fresh[k].Name] {
			s.results[k].OK = false
			s.results[k].Err = "acknowledged run missing after reopen: " + s.tr.Fresh[k].Name
		}
	}
	rep, err := st.VerifyLedger()
	if err != nil {
		return fmt.Errorf("VerifyLedger after reopen: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("VerifyLedger after reopen: %v", rep.Issues)
	}
	return nil
}
