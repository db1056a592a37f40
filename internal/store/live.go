package store

// Live (still-executing) runs. A live run accumulates validated
// node-status events through wfrun.Live; its event log is persisted as
// JSON lines under <spec>/live/<run>.events so an interrupted server
// replays in-flight runs on restart. Completion derives the run once,
// with the Derive call an XML import makes, and promotes it into the
// regular repository through the same ImportParsed path bulk ingest
// uses, so it gets the segment frame, ledger attestation and run-set
// version step every other run gets, and the stored
// frame is the same one an import of the run's XML stores.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/wfrun"
)

// LiveStatus is a snapshot of one in-flight run.
type LiveStatus struct {
	Spec   string `json:"spec"`
	Run    string `json:"run"`
	Events int    `json:"events"`
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`
	// Counts is the executed-instance histogram indexed by
	// specification leaf index — the drift monitor's raw material.
	Counts []int `json:"counts"`
}

type liveRun struct {
	lv  *wfrun.Live
	key string // backend key of the event journal
}

func liveDirKey(specName string) string { return specName + "/live" }
func liveKey(specName, runName string) string {
	return specName + "/live/" + runName + ".events"
}

// liveEntry returns the in-memory state for a live run, replaying its
// persisted event log if the store was reopened since the events
// arrived. With create=false a run with no state and no log yields
// (nil, nil).
//
// Replay is where crash debris gets repaired: a torn trailing line
// (unterminated, whether or not its prefix happens to parse) is
// dropped and truncated away (truncateTornTail). A malformed line that
// IS newline-terminated is corruption, and errors.
//
// A journal whose run is already stored is debris of a completion
// that crashed between its commit and the journal removal: it is
// dropped, not replayed, and liveEntry returns (nil, nil) even with
// create set. Caller holds s.liveMu.
func (s *Store) liveEntry(specName, runName string, create bool) (*liveRun, error) {
	key := runKey(specName, runName)
	if e, ok := s.live[key]; ok {
		return e, nil
	}
	sp, err := s.LoadSpec(specName)
	if err != nil {
		return nil, err
	}
	jkey := liveKey(specName, runName)
	data, err := s.be.ReadFile(jkey)
	if err != nil && !isNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	missing := err != nil
	if missing && !create {
		return nil, nil
	}
	if !missing && s.hasRun(specName, runName) {
		if err := s.be.Remove(jkey); err != nil && !isNotExist(err) {
			return nil, fmt.Errorf("store: %w", err)
		}
		return nil, nil
	}
	lv := wfrun.NewLive(sp)
	data, err = truncateTornTail(s.be, jkey, data)
	if err != nil {
		return nil, fmt.Errorf("store: repairing %s: %w", jkey, err)
	}
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var ev wfrun.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("store: corrupt live event log %s line %d: %w", jkey, i+1, err)
		}
		if err := lv.Append(ev); err != nil {
			return nil, fmt.Errorf("store: replaying %s line %d: %w", jkey, i+1, err)
		}
	}
	if missing {
		// Materialize the journal so the run is visible (ListLiveRuns,
		// restart replay) even before its first event arrives.
		if err := s.be.WriteFile(jkey, nil); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	e := &liveRun{lv: lv, key: jkey}
	s.live[key] = e
	return e, nil
}

func (s *Store) liveStatus(specName, runName string, lv *wfrun.Live) LiveStatus {
	return LiveStatus{
		Spec:   specName,
		Run:    runName,
		Events: lv.Events(),
		Nodes:  lv.Nodes(),
		Edges:  lv.Edges(),
		Counts: lv.Counts(),
	}
}

// AppendLiveEvents applies a batch of node-status events to a live
// run, creating it on first touch. Events are validated one at a time:
// on error, the events before the failing one remain applied and
// persisted, and the returned status reflects them. A name already
// present as a stored (completed) run is rejected with
// ErrDuplicateRun.
func (s *Store) AppendLiveEvents(specName, runName string, evs []wfrun.Event) (LiveStatus, error) {
	if err := validateNames(specName, runName); err != nil {
		return LiveStatus{}, err
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	// Checked under liveMu: CompleteLiveRun stores the run and drops
	// the live state under the same lock, so a late append cannot
	// recreate the journal of a completed run.
	if s.hasRun(specName, runName) {
		return LiveStatus{}, fmt.Errorf("store: run %s/%s: %w", specName, runName, ErrDuplicateRun)
	}
	e, err := s.liveEntry(specName, runName, true)
	if err != nil {
		return LiveStatus{}, err
	}
	if e == nil { // stored by a concurrent import since the check
		return LiveStatus{}, fmt.Errorf("store: run %s/%s: %w", specName, runName, ErrDuplicateRun)
	}
	var buf bytes.Buffer
	var evErr error
	for i, ev := range evs {
		if err := e.lv.Append(ev); err != nil {
			evErr = fmt.Errorf("store: event %d: %w", i, err)
			break
		}
		line, err := json.Marshal(ev)
		if err != nil {
			evErr = fmt.Errorf("store: %w", err)
			break
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	status := s.liveStatus(specName, runName, e.lv)
	if buf.Len() > 0 {
		if err := s.be.Append(e.key, buf.Bytes(), false); err != nil {
			// The journal may hold any prefix of the batch, torn mid-line,
			// while memory holds all of it. Drop the memory state: the
			// next touch replays the journal, truncating the torn tail,
			// so memory and disk agree again.
			delete(s.live, runKey(specName, runName))
			return LiveStatus{}, fmt.Errorf("store: %w", err)
		}
	}
	return status, evErr
}

// LiveStatusOf reports the state of one live run; ok is false when the
// run has no live state.
func (s *Store) LiveStatusOf(specName, runName string) (LiveStatus, bool, error) {
	if err := validateNames(specName, runName); err != nil {
		return LiveStatus{}, false, err
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	e, err := s.liveEntry(specName, runName, false)
	if err != nil {
		return LiveStatus{}, false, err
	}
	if e == nil {
		return LiveStatus{}, false, nil
	}
	return s.liveStatus(specName, runName, e.lv), true, nil
}

// ListLiveRuns names every in-flight run of a specification, loaded or
// only persisted.
func (s *Store) ListLiveRuns(specName string) ([]string, error) {
	if err := ValidateName(specName); err != nil {
		return nil, err
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	names := make(map[string]bool)
	prefix := specName + "/"
	for key := range s.live {
		if strings.HasPrefix(key, prefix) {
			names[strings.TrimPrefix(key, prefix)] = true
		}
	}
	entries, err := s.be.List(liveDirKey(specName))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		n, ok := strings.CutSuffix(e.Name, ".events")
		if !ok || names[n] {
			continue
		}
		// An unloaded journal of a stored run is completion debris
		// (see liveEntry): drop it rather than list it.
		if s.hasRun(specName, n) {
			if err := s.be.Remove(liveKey(specName, n)); err != nil && !isNotExist(err) {
				return nil, fmt.Errorf("store: %w", err)
			}
			continue
		}
		names[n] = true
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// CompleteLiveRun finishes a live run: the assembled tree is validated
// against the specification, the run is imported through the bulk
// group-commit path (snapshot + ledger + one run-set version step), and
// the live state is dropped.
func (s *Store) CompleteLiveRun(specName, runName string) (*wfrun.Run, error) {
	if err := validateNames(specName, runName); err != nil {
		return nil, err
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	e, err := s.liveEntry(specName, runName, false)
	if err != nil {
		return nil, err
	}
	if e == nil {
		return nil, fmt.Errorf("store: no live run %s/%s: %w", specName, runName, os.ErrNotExist)
	}
	run, err := e.lv.Complete()
	if err != nil {
		return nil, err
	}
	if _, err := s.ImportParsed(specName, []ParsedRun{{Name: runName, Run: run}}); err != nil {
		return nil, err
	}
	_ = s.be.Remove(e.key)
	delete(s.live, runKey(specName, runName))
	return run, nil
}

// LiveCount reports how many live runs are loaded in memory — the
// /metrics gauge. Persisted-but-unloaded runs are not counted until
// something touches them.
func (s *Store) LiveCount() int {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return len(s.live)
}

// AbandonLiveRun discards a live run's state and event log.
func (s *Store) AbandonLiveRun(specName, runName string) error {
	if err := validateNames(specName, runName); err != nil {
		return err
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	key := runKey(specName, runName)
	_, ok := s.live[key]
	if ok {
		delete(s.live, key)
	}
	err := s.be.Remove(liveKey(specName, runName))
	if !ok && isNotExist(err) {
		return fmt.Errorf("store: no live run %s/%s: %w", specName, runName, os.ErrNotExist)
	}
	if err != nil && !isNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
