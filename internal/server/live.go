package server

// Live-workflow monitoring: event-by-event ingest for runs still
// executing, a drift score comparing the partial run against the
// cohort's most representative execution (its medoid), and an NDJSON
// watch stream pushing drift updates to attached clients.
//
// The drift score is a certified lower bound on the edit distance the
// partial run has ALREADY committed to against the medoid: it prices
// only excess executed instances — leaves the live run has over the
// medoid's count in the same homology class — at the model's
// histogram-bound rate (metricindex.LowerBoundRate). Executed
// instances never un-execute, so the score is monotone over the
// event stream; and because it never exceeds the histogram bound,
// which never exceeds the exact distance, the final exact diff after
// completion can only confirm or raise it, never contradict it.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/metricindex"
	"repro/internal/store"
	"repro/internal/wfrun"
)

// watchPingInterval paces keepalive lines on an otherwise idle watch
// stream, so intermediate proxies don't reap the connection.
const watchPingInterval = 15 * time.Second

// driftUpdate is one line of the watch stream and the drift block of a
// live-events response.
type driftUpdate struct {
	Type   string `json:"type"` // "drift"
	Spec   string `json:"spec"`
	Run    string `json:"run"`
	Events int    `json:"events"`
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`
	// Score is the monotone drift lower bound (0 when no baseline or
	// the cost model defeats the histogram bound). Final scores carry
	// the exact edit distance instead.
	Score float64 `json:"score"`
	// Excess counts executed leaf instances beyond the medoid's tally.
	Excess int `json:"excess"`
	// Baseline names the medoid run the score compares against; empty
	// when the cohort has no stored runs yet.
	Baseline string `json:"baseline,omitempty"`
	Cost     string `json:"cost"`
	// Final marks the post-completion update: Score is then the exact
	// edit distance of the finished run against the baseline.
	Final bool `json:"final,omitempty"`
}

// --- watch hub ------------------------------------------------------

// watchHub fans drift updates out to /watch subscribers. Publishing
// never blocks: a subscriber whose buffer is full loses the update and
// the drop is counted — safe because scores are cumulative, so the
// next update supersedes the lost one.
type watchHub struct {
	mu      sync.Mutex
	subs    map[string]map[chan driftUpdate]bool // spec → subscriber set
	dropped atomic.Int64
}

func newWatchHub() *watchHub {
	return &watchHub{subs: make(map[string]map[chan driftUpdate]bool)}
}

func (h *watchHub) subscribe(specName string) chan driftUpdate {
	ch := make(chan driftUpdate, 16)
	h.mu.Lock()
	defer h.mu.Unlock()
	set := h.subs[specName]
	if set == nil {
		set = make(map[chan driftUpdate]bool)
		h.subs[specName] = set
	}
	set[ch] = true
	return ch
}

func (h *watchHub) unsubscribe(specName string, ch chan driftUpdate) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if set := h.subs[specName]; set != nil {
		delete(set, ch)
		if len(set) == 0 {
			delete(h.subs, specName)
		}
	}
}

func (h *watchHub) publish(specName string, u driftUpdate) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs[specName] {
		select {
		case ch <- u:
		default:
			h.dropped.Add(1)
		}
	}
}

func (h *watchHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, set := range h.subs {
		n += len(set)
	}
	return n
}

func (h *watchHub) droppedCount() int64 { return h.dropped.Load() }

// --- drift baseline -------------------------------------------------

// driftBaseline is the cached per-(spec, cost) comparison target.
type driftBaseline struct {
	Run    string  // medoid run name, "" when the cohort is empty
	Counts []int   // medoid executed instances per specification leaf
	Rate   float64 // histogram-bound price per excess instance
}

// baseline resolves (computing and caching on miss) the drift baseline
// for a specification under a cost model. An empty cohort yields a
// baseline with no run — drift then reports structure only. The cache
// entry is cohort-scoped: it is keyed by the run-set version of the
// cohort its medoid was taken from, since any run change may move the
// medoid.
func (s *Server) baseline(r *http.Request, specName string, m cost.Model) (driftBaseline, error) {
	key := cacheKey{spec: specName, cost: m.Name(), kind: kindDrift}
	t0 := time.Now()
	v, ok := s.cache.get(key, inputs{version: s.st.RunsVersion(specName)})
	observeStage(r.Context(), stageCache, t0)
	if ok {
		return v.(driftBaseline), nil
	}
	sp, err := s.st.LoadSpec(specName)
	if err != nil {
		return driftBaseline{}, err
	}
	b := driftBaseline{Rate: metricindex.LowerBoundRate(m, sp)}
	view, version, err := s.cohortView(specName, m, analysis.Options{})
	if err != nil {
		return driftBaseline{}, err
	}
	i, ok, err := view.Medoid(r.Context())
	if err != nil {
		return driftBaseline{}, err
	}
	if ok {
		b.Run = view.Label(i)
		medoid, err := s.st.LoadRun(specName, b.Run)
		if err != nil {
			return driftBaseline{}, err
		}
		b.Counts = medoid.LeafCounts()
	}
	s.cache.add(key, inputs{version: version}, b)
	return b, nil
}

// drift scores a live status against the baseline.
func drift(st store.LiveStatus, b driftBaseline, m cost.Model) driftUpdate {
	excess := 0
	for i, c := range st.Counts {
		base := 0
		if i < len(b.Counts) {
			base = b.Counts[i]
		}
		if c > base {
			excess += c - base
		}
	}
	return driftUpdate{
		Type:     "drift",
		Spec:     st.Spec,
		Run:      st.Run,
		Events:   st.Events,
		Nodes:    st.Nodes,
		Edges:    st.Edges,
		Score:    b.Rate * float64(excess),
		Excess:   excess,
		Baseline: b.Run,
		Cost:     m.Name(),
	}
}

// --- handlers -------------------------------------------------------

// decodeEvents reads the request body as either one JSON array of
// events or an NDJSON stream of event objects. An empty body yields
// (nil, nil).
func decodeEvents(r *http.Request, limit int64) ([]wfrun.Event, error) {
	br := bufio.NewReader(http.MaxBytesReader(nil, r.Body, limit))
	// Peek past leading whitespace to pick the shape.
	for {
		c, err := br.Peek(1)
		if errors.Is(err, io.EOF) {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reading event body: %w", err)
		}
		if c[0] == ' ' || c[0] == '\t' || c[0] == '\n' || c[0] == '\r' {
			br.Discard(1)
			continue
		}
		break
	}
	dec := json.NewDecoder(br)
	dec.DisallowUnknownFields()
	if c, _ := br.Peek(1); len(c) == 1 && c[0] == '[' {
		var evs []wfrun.Event
		if err := dec.Decode(&evs); err != nil {
			return nil, fmt.Errorf("decoding event array: %w", err)
		}
		return evs, nil
	}
	var evs []wfrun.Event
	for {
		var ev wfrun.Event
		if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
			return evs, nil
		} else if err != nil {
			return nil, fmt.Errorf("decoding event %d: %w", len(evs), err)
		}
		evs = append(evs, ev)
	}
}

type liveEventsPayload struct {
	store.LiveStatus
	Drift driftUpdate `json:"drift"`
	// Completed is set when ?complete=1 promoted the run to a stored
	// run; Drift is then the final exact-distance update.
	Completed bool `json:"completed,omitempty"`
}

// handleLiveEvents appends node-status events to a live run (creating
// it on first touch), recomputes the drift score, pushes it to watch
// subscribers, and with ?complete=1 finishes the run: the assembled
// tree is imported through the group-commit path and the final update
// carries the exact edit distance against the baseline.
func (s *Server) handleLiveEvents(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec", "run")
	if !ok {
		return
	}
	q := s.query(r)
	m := q.cost()
	complete := q.flag("complete")
	if !q.valid(w) {
		return
	}
	t0 := time.Now()
	evs, err := decodeEvents(r, s.maxImportBytes())
	observeStage(r.Context(), stageParse, t0)
	if err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	if len(evs) == 0 && !complete {
		s.httpError(w, fmt.Errorf("event body is empty"), http.StatusBadRequest)
		return
	}

	// The baseline is resolved before the append so a first event on a
	// fresh spec sees a coherent (possibly empty) cohort snapshot.
	b, berr := s.baseline(r, ns[0], m)
	if berr != nil {
		s.storeError(w, berr)
		return
	}

	var status store.LiveStatus
	if len(evs) > 0 {
		t0 = time.Now()
		status, err = s.st.AppendLiveEvents(ns[0], ns[1], evs)
		observeStage(r.Context(), stageStore, t0)
		if err != nil {
			s.storeError(w, err)
			return
		}
	} else {
		// ?complete=1 with an empty body finishes a run whose events
		// all arrived earlier.
		st, ok, err := s.st.LiveStatusOf(ns[0], ns[1])
		if err != nil {
			s.storeError(w, err)
			return
		}
		if !ok {
			s.httpError(w, fmt.Errorf("no live run %s/%s", ns[0], ns[1]), http.StatusNotFound)
			return
		}
		status = st
	}

	t0 = time.Now()
	u := drift(status, b, m)
	observeStage(r.Context(), stageDiff, t0)

	p := liveEventsPayload{LiveStatus: status, Drift: u}
	if complete {
		t0 = time.Now()
		_, err := s.st.CompleteLiveRun(ns[0], ns[1])
		observeStage(r.Context(), stageStore, t0)
		if err != nil {
			s.storeError(w, err)
			return
		}
		p.Completed = true
		u.Final = true
		if b.Run != "" && b.Run != ns[1] {
			// diffPair charges its own cache and diff stages.
			dp, err := s.diffPair(r.Context(), ns[0], ns[1], b.Run, m)
			if err != nil {
				s.storeError(w, err)
				return
			}
			u.Score = dp.Distance
		}
		p.Drift = u
	}
	s.watch.publish(ns[0], u)
	s.writeJSON(w, p)
}

// handleWatch streams drift updates for a specification as NDJSON: a
// hello object naming the runs currently live, then one drift object
// per update until the client disconnects. Updates are pushed by
// handleLiveEvents through the hub; an idle stream carries periodic
// ping lines.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec")
	if !ok {
		return
	}
	if _, err := s.st.LoadSpec(ns[0]); err != nil {
		s.storeError(w, err)
		return
	}
	live, err := s.st.ListLiveRuns(ns[0])
	if err != nil {
		s.storeError(w, err)
		return
	}
	ch := s.watch.subscribe(ns[0])
	defer s.watch.unsubscribe(ns[0], ch)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	send := func(v any) bool {
		rc.SetWriteDeadline(time.Now().Add(progressWriteTimeout))
		if err := enc.Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if live == nil {
		live = []string{}
	}
	if !send(map[string]any{"type": "hello", "spec": ns[0], "live": live}) {
		return
	}
	ping := time.NewTicker(watchPingInterval)
	defer ping.Stop()
	for {
		select {
		case <-r.Context().Done():
			// Client went away (or server shutdown): unsubscribe and
			// release the goroutine instead of parking forever.
			return
		case u := <-ch:
			if !send(u) {
				return
			}
		case <-ping.C:
			if !send(map[string]any{"type": "ping"}) {
				return
			}
		}
	}
}
