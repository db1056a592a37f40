package store

import (
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/wfrun"
)

func seedLiveSpec(t *testing.T, dir string) (*Store, []wfrun.Event) {
	t.Helper()
	st := openTestStore(t, dir)
	rng := rand.New(rand.NewSource(11))
	sp, err := gen.RandomSpec(gen.SpecConfig{Edges: 10, SeriesRatio: 1.5, Forks: 1, Loops: 1}, rng)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	if err := st.SaveSpec("s", sp); err != nil {
		t.Fatalf("save spec: %v", err)
	}
	run, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return st, wfrun.Events(run)
}

func TestLiveRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, evs := seedLiveSpec(t, dir)

	half := len(evs) / 2
	status, err := st.AppendLiveEvents("s", "r1", evs[:half])
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if status.Events != half {
		t.Fatalf("events = %d, want %d", status.Events, half)
	}
	if names, _ := st.ListLiveRuns("s"); len(names) != 1 || names[0] != "r1" {
		t.Fatalf("live runs = %v, want [r1]", names)
	}

	// Reopen mid-run: the persisted event log replays.
	st2 := openTestStore(t, dir)
	status2, ok, err := st2.LiveStatusOf("s", "r1")
	if err != nil || !ok {
		t.Fatalf("status after reopen: ok=%v err=%v", ok, err)
	}
	if status2.Events != half {
		t.Fatalf("replayed events = %d, want %d", status2.Events, half)
	}

	if _, err := st2.AppendLiveEvents("s", "r1", evs[half:]); err != nil {
		t.Fatalf("append rest: %v", err)
	}
	run, err := st2.CompleteLiveRun("s", "r1")
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := run.Validate(); err != nil {
		t.Fatalf("completed run invalid: %v", err)
	}

	// Live state is gone; the run is a regular stored run whose XML
	// re-parses to the same diffable content as the in-memory result.
	if _, ok, _ := st2.LiveStatusOf("s", "r1"); ok {
		t.Fatal("live state survived completion")
	}
	if _, err := st2.Backend().Stat(liveKey("s", "r1")); !isNotExist(err) {
		t.Fatalf("event log survived completion: %v", err)
	}
	if _, err := st2.LoadRun("s", "r1"); err != nil {
		t.Fatalf("load completed run: %v", err)
	}

	// A second run imported normally diffs against the live-completed
	// one identically from the warm cache and from a cold re-parse.
	sp, _ := st2.LoadSpec("s")
	lv := wfrun.NewLive(sp)
	for _, ev := range evs {
		if err := lv.Append(ev); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	other, err := lv.Complete()
	if err != nil {
		t.Fatalf("complete twin: %v", err)
	}
	if _, err := st2.ImportParsed("s", []ParsedRun{{Name: "r2", Run: other}}); err != nil {
		t.Fatalf("import twin: %v", err)
	}
	warm, err := st2.Diff("s", "r1", "r2", cost.Unit{})
	if err != nil {
		t.Fatalf("warm diff: %v", err)
	}
	st3 := openTestStore(t, dir)
	cold, err := st3.Diff("s", "r1", "r2", cost.Unit{})
	if err != nil {
		t.Fatalf("cold diff: %v", err)
	}
	if warm.Distance != cold.Distance {
		t.Fatalf("warm/cold diffs differ: %v vs %v", warm.Distance, cold.Distance)
	}

	// Appending to a completed (stored) run name is a conflict.
	if _, err := st2.AppendLiveEvents("s", "r1", evs[:1]); !errors.Is(err, ErrDuplicateRun) {
		t.Fatalf("append to stored run = %v, want ErrDuplicateRun", err)
	}
}

func TestLiveRunErrors(t *testing.T) {
	dir := t.TempDir()
	st, evs := seedLiveSpec(t, dir)
	if _, err := st.CompleteLiveRun("s", "missing"); err == nil {
		t.Fatal("expected completing a missing run to fail")
	}
	// A bad event reports its index but keeps the prefix.
	status, err := st.AppendLiveEvents("s", "r", []wfrun.Event{evs[0], {From: "zz", To: "qq"}})
	if err == nil {
		t.Fatal("expected a bad event to fail")
	}
	if status.Events != 1 {
		t.Fatalf("events after partial batch = %d, want 1", status.Events)
	}
}

// TestLiveJournalTornTailMidRecord: a crash mid-append leaves half an
// event line at the journal tail. Replay must apply only the complete
// lines, truncate the fragment, and keep accepting events — the next
// append must not weld onto the torn bytes.
func TestLiveJournalTornTailMidRecord(t *testing.T) {
	dir := t.TempDir()
	st, evs := seedLiveSpec(t, dir)
	if _, err := st.AppendLiveEvents("s", "r", evs[:3]); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Simulate the torn write: half of a marshaled event, no newline.
	line, err := json.Marshal(evs[3])
	if err != nil {
		t.Fatal(err)
	}
	be := openTestBackend(t, dir)
	if err := be.Append(liveKey("s", "r"), line[:len(line)/2], false); err != nil {
		t.Fatal(err)
	}

	cold := openTestStore(t, dir)
	status, ok, err := cold.LiveStatusOf("s", "r")
	if err != nil || !ok {
		t.Fatalf("status after torn tail: ok=%v err=%v", ok, err)
	}
	if status.Events != 3 {
		t.Fatalf("replayed %d events, want the 3 complete ones", status.Events)
	}
	// The fragment is gone from the journal, not just skipped. Read
	// through a fresh backend handle: the repair went through the cold
	// store's backend and must be visible in the persisted bytes.
	data, err := openTestBackend(t, dir).ReadFile(liveKey("s", "r"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatal("journal still ends in a torn fragment after replay")
	}
	// The producer retries from where the store says it is: appending
	// the rest completes the run cleanly.
	if _, err := cold.AppendLiveEvents("s", "r", evs[3:]); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	run, err := cold.CompleteLiveRun("s", "r")
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := run.Validate(); err != nil {
		t.Fatalf("completed run invalid: %v", err)
	}
}

// TestLiveJournalUnterminatedParseableTail: an unterminated final
// line that happens to be valid JSON is still a torn write — the
// terminating newline IS the commit marker. Replay must drop it, so
// the producer's retry of that event is an append, not a duplicate.
func TestLiveJournalUnterminatedParseableTail(t *testing.T) {
	dir := t.TempDir()
	st, evs := seedLiveSpec(t, dir)
	if _, err := st.AppendLiveEvents("s", "r", evs[:2]); err != nil {
		t.Fatalf("append: %v", err)
	}
	line, err := json.Marshal(evs[2])
	if err != nil {
		t.Fatal(err)
	}
	be := openTestBackend(t, dir)
	if err := be.Append(liveKey("s", "r"), line, false); err != nil { // no trailing newline
		t.Fatal(err)
	}

	cold := openTestStore(t, dir)
	status, ok, err := cold.LiveStatusOf("s", "r")
	if err != nil || !ok {
		t.Fatalf("status: ok=%v err=%v", ok, err)
	}
	if status.Events != 2 {
		t.Fatalf("replay applied the uncommitted tail: %d events, want 2", status.Events)
	}
	// Retrying the dropped event must land it exactly once.
	status, err = cold.AppendLiveEvents("s", "r", evs[2:3])
	if err != nil {
		t.Fatalf("retry append: %v", err)
	}
	if status.Events != 3 {
		t.Fatalf("after retry: %d events, want 3", status.Events)
	}
	// And the journal now replays to the same 3 events.
	again := openTestStore(t, dir)
	status, ok, err = again.LiveStatusOf("s", "r")
	if err != nil || !ok || status.Events != 3 {
		t.Fatalf("second replay: ok=%v err=%v events=%d, want 3", ok, err, status.Events)
	}
}

// TestCompleteLiveRunRacesAppend: completion racing a concurrent
// append must stay coherent under the race detector. Two orderings
// are legal: completion wins and the late append bounces off the
// stored run, or the append sneaks in first (re-executing a spec edge
// grows a parallel subtree) and completion rejects the now-invalid
// run, leaving the live state intact. Either way nothing is corrupted
// or wedged.
func TestCompleteLiveRunRacesAppend(t *testing.T) {
	dir := t.TempDir()
	st, evs := seedLiveSpec(t, dir)
	if _, err := st.AppendLiveEvents("s", "r", evs); err != nil {
		t.Fatalf("append: %v", err)
	}
	var wg sync.WaitGroup
	var completeErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, completeErr = st.CompleteLiveRun("s", "r")
	}()
	go func() {
		defer wg.Done()
		_, _ = st.AppendLiveEvents("s", "r", evs[:1])
	}()
	wg.Wait()

	if completeErr != nil {
		// The append won: the live run is still there, still serving
		// status.
		if _, ok, err := st.LiveStatusOf("s", "r"); err != nil || !ok {
			t.Fatalf("live run gone after failed completion: ok=%v err=%v", ok, err)
		}
		return
	}
	// Completion won: live state is gone and the stored run is valid.
	if _, ok, _ := st.LiveStatusOf("s", "r"); ok {
		t.Fatal("live state survived completion")
	}
	run, err := st.LoadRun("s", "r")
	if err != nil {
		t.Fatalf("load completed run: %v", err)
	}
	if err := run.Validate(); err != nil {
		t.Fatalf("completed run invalid: %v", err)
	}
	// The journal is gone; a fresh append under the same name is a
	// duplicate-run conflict, not a resurrection.
	if _, err := st.AppendLiveEvents("s", "r", evs[:1]); !errors.Is(err, ErrDuplicateRun) {
		t.Fatalf("append after completion = %v, want ErrDuplicateRun", err)
	}
}

// TestCompletedRunJournalIsDropped is the crash between completion's
// commit and its journal removal: the run is stored but its event
// journal survives. A restarted store must drop that journal rather
// than replay it, so the live run does not come back beside the
// stored one, and a late append is a duplicate-run conflict.
func TestCompletedRunJournalIsDropped(t *testing.T) {
	dir := t.TempDir()
	st, evs := seedLiveSpec(t, dir)
	if _, err := st.AppendLiveEvents("s", "r", evs); err != nil {
		t.Fatal(err)
	}
	// Commit the completed run exactly as CompleteLiveRun does, then
	// "crash" before the journal removal.
	sp, err := st.LoadSpec("s")
	if err != nil {
		t.Fatal(err)
	}
	lv := wfrun.NewLive(sp)
	for _, ev := range evs {
		if err := lv.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	run, err := lv.Complete()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportParsed("s", []ParsedRun{{Name: "r", Run: run}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Backend().Stat(liveKey("s", "r")); err != nil {
		t.Fatalf("journal should survive the simulated crash: %v", err)
	}

	restarted := openTestStore(t, dir)
	if names, err := restarted.ListLiveRuns("s"); err != nil || len(names) != 0 {
		t.Fatalf("live runs after restart = %v, %v; want none", names, err)
	}
	if _, ok, err := restarted.LiveStatusOf("s", "r"); err != nil || ok {
		t.Fatalf("live status of a stored run: ok=%v err=%v", ok, err)
	}
	if _, err := restarted.Backend().Stat(liveKey("s", "r")); !isNotExist(err) {
		t.Fatalf("stale journal not removed: %v", err)
	}
	if _, err := restarted.AppendLiveEvents("s", "r", evs[:1]); !errors.Is(err, ErrDuplicateRun) {
		t.Fatalf("append to a stored run = %v, want ErrDuplicateRun", err)
	}
	if _, err := restarted.LoadRun("s", "r"); err != nil {
		t.Fatal(err)
	}

	// The same debris reached through LiveStatusOf first (not a listing).
	if err := restarted.Backend().Append(liveKey("s", "r"), []byte("\n"), false); err != nil {
		t.Fatal(err)
	}
	again := openTestStore(t, dir)
	if _, ok, err := again.LiveStatusOf("s", "r"); err != nil || ok {
		t.Fatalf("live status of a stored run: ok=%v err=%v", ok, err)
	}
	if _, err := again.Backend().Stat(liveKey("s", "r")); !isNotExist(err) {
		t.Fatalf("stale journal not removed by LiveStatusOf: %v", err)
	}
}
