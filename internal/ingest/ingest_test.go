package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// okCommit succeeds every job, recording batch sizes.
func okCommit(batches *[][]string, mu *sync.Mutex) CommitFunc {
	return func(jobs []*Job) []Result {
		names := make([]string, len(jobs))
		results := make([]Result, len(jobs))
		for i, j := range jobs {
			names[i] = j.Run
			results[i] = Result{Nodes: 1, Edges: 2}
		}
		mu.Lock()
		*batches = append(*batches, names)
		mu.Unlock()
		return results
	}
}

func enqueueWait(t *testing.T, p *Pipeline, run string) Result {
	t.Helper()
	j := &Job{Spec: "s", Run: run, Resp: make(chan Result, 1)}
	if err := p.Enqueue(j); err != nil {
		t.Fatalf("enqueue %s: %v", run, err)
	}
	return <-j.Resp
}

// gatedCommit wraps inner so that the pipeline's first commit blocks
// until release is called. entered is closed once that commit has
// begun, so every job enqueued after it queues up behind the
// in-flight commit and the next gather takes them as one batch.
func gatedCommit(inner CommitFunc) (fn CommitFunc, entered <-chan struct{}, release func()) {
	gate := make(chan struct{})
	in := make(chan struct{})
	var first atomic.Bool
	fn = func(jobs []*Job) []Result {
		if !first.Swap(true) {
			close(in)
			<-gate
		}
		return inner(jobs)
	}
	return fn, in, func() { close(gate) }
}

// A full batch commits in one flush: park the batcher on a gate so
// the whole batch queues up behind one in-flight commit.
func TestBatchCoalescing(t *testing.T) {
	var (
		mu      sync.Mutex
		batches [][]string
	)
	commit, entered, release := gatedCommit(okCommit(&batches, &mu))
	p := New(commit, Options{QueueDepth: 64, BatchSize: 8})
	defer p.Close()

	// One job occupies the batcher (entered confirms it is alone in
	// its batch before anything else is queued)...
	warm := &Job{Spec: "s", Run: "warm", Resp: make(chan Result, 1)}
	if err := p.Enqueue(warm); err != nil {
		t.Fatal(err)
	}
	<-entered
	// ...while 8 more pile up on the queue.
	resps := make([]chan Result, 8)
	for i := range resps {
		resps[i] = make(chan Result, 1)
		if err := p.Enqueue(&Job{Spec: "s", Run: fmt.Sprintf("r%d", i), Resp: resps[i]}); err != nil {
			t.Fatal(err)
		}
	}
	release()
	<-warm.Resp
	for i, c := range resps {
		if res := <-c; res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 {
		t.Fatalf("batches = %v, want the warm-up plus ONE coalesced batch", batches)
	}
	if len(batches[1]) != 8 {
		t.Fatalf("coalesced batch carried %d jobs, want 8", len(batches[1]))
	}
	st := p.Stats()
	if st.MaxBatch != 8 || st.Committed != 9 {
		t.Fatalf("stats = %+v", st)
	}
}

// Without a backlog, a lone job commits at once in a batch of one.
func TestEagerFlush(t *testing.T) {
	var (
		mu      sync.Mutex
		batches [][]string
	)
	p := New(okCommit(&batches, &mu), Options{QueueDepth: 8, BatchSize: 8})
	defer p.Close()
	if res := enqueueWait(t, p, "eager"); res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := p.Stats(); st.Batches != 1 || st.AvgBatch != 1 {
		t.Fatalf("eager stats = %+v", st)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	gate := make(chan struct{})
	p := New(func(jobs []*Job) []Result {
		<-gate
		return make([]Result, len(jobs))
	}, Options{QueueDepth: 2, BatchSize: 1})
	defer p.Close()
	defer close(gate)

	// First job is picked up by the batcher (blocked in commit); two
	// more fill the queue; the fourth must bounce.
	if err := p.Enqueue(&Job{Run: "a"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	filled := 0
	for filled < 2 && time.Now().Before(deadline) {
		if err := p.Enqueue(&Job{Run: "fill"}); err == nil {
			filled++
		}
	}
	if filled != 2 {
		t.Fatalf("filled %d queue slots, want 2", filled)
	}
	if err := p.Enqueue(&Job{Run: "bounced"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue on full queue = %v, want ErrQueueFull", err)
	}
	if st := p.Stats(); st.Rejected == 0 {
		t.Fatalf("stats = %+v, want rejected > 0", st)
	}
}

// Close drains: jobs already queued are committed before Close
// returns, and later enqueues fail with ErrClosed.
func TestCloseDrains(t *testing.T) {
	var (
		mu      sync.Mutex
		batches [][]string
	)
	gate := make(chan struct{})
	var first atomic.Bool
	inner := okCommit(&batches, &mu)
	p := New(func(jobs []*Job) []Result {
		if !first.Swap(true) {
			<-gate
		}
		return inner(jobs)
	}, Options{QueueDepth: 64, BatchSize: 4})

	warm := &Job{Run: "warm", Resp: make(chan Result, 1)}
	if err := p.Enqueue(warm); err != nil {
		t.Fatal(err)
	}
	resps := make([]chan Result, 6)
	for i := range resps {
		resps[i] = make(chan Result, 1)
		if err := p.Enqueue(&Job{Run: fmt.Sprintf("q%d", i), Resp: resps[i]}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	p.Close()
	for i, c := range resps {
		select {
		case res := <-c:
			if res.Err != nil {
				t.Fatalf("drained job %d failed: %v", i, res.Err)
			}
		default:
			t.Fatalf("job %d was not committed by Close", i)
		}
	}
	if err := p.Enqueue(&Job{Run: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close = %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

// A commit that returns short results marks the tail failed instead
// of leaving waiters parked forever.
func TestShortCommitResults(t *testing.T) {
	p := New(func(jobs []*Job) []Result {
		return make([]Result, len(jobs)-1)
	}, Options{QueueDepth: 8, BatchSize: 1})
	defer p.Close()
	if res := enqueueWait(t, p, "r"); res.Err == nil {
		t.Fatal("short commit result slipped through as success")
	}
}

func TestSlowCommitWatchdog(t *testing.T) {
	p := New(func(jobs []*Job) []Result {
		time.Sleep(3 * time.Millisecond)
		return make([]Result, len(jobs))
	}, Options{QueueDepth: 4, BatchSize: 1, SlowCommit: time.Millisecond})
	defer p.Close()
	enqueueWait(t, p, "slow")
	st := p.Stats()
	if st.SlowCommits != 1 {
		t.Fatalf("slow commits = %d, want 1", st.SlowCommits)
	}
	if st.LastCommitMS < 1 {
		t.Fatalf("last commit = %vms, want >= 1ms", st.LastCommitMS)
	}
}

func TestTicketLifecycle(t *testing.T) {
	reg := NewRegistry(4)
	tk := reg.New("pa", []string{"a", "b"})
	if got := tk.Snapshot(); got.State != StatePending || got.Total != 2 || got.Done != 0 {
		t.Fatalf("fresh ticket = %+v", got)
	}
	tk.resolve("a", Result{Nodes: 3, Edges: 4})
	if got := tk.Snapshot(); got.State != StatePending || got.Done != 1 {
		t.Fatalf("half-done ticket = %+v", got)
	}
	tk.resolve("b", Result{Err: errors.New("boom")})
	got := tk.Snapshot()
	if got.State != StateFailed || got.Done != 2 {
		t.Fatalf("resolved ticket = %+v", got)
	}
	if got.Runs[0].State != StateCommitted || got.Runs[0].Nodes != 3 {
		t.Fatalf("run a = %+v", got.Runs[0])
	}
	if got.Runs[1].State != StateFailed || got.Runs[1].Error != "boom" {
		t.Fatalf("run b = %+v", got.Runs[1])
	}
	// Double-resolution is ignored.
	tk.resolve("b", Result{})
	if again := tk.Snapshot(); again.State != StateFailed {
		t.Fatalf("re-resolved ticket = %+v", again)
	}
	if _, ok := reg.Get(tk.ID); !ok {
		t.Fatal("resolved ticket evicted while under retention bound")
	}
}

func TestTicketRetentionEviction(t *testing.T) {
	reg := NewRegistry(2)
	var ids []string
	for i := 0; i < 4; i++ {
		tk := reg.New("pa", []string{"r"})
		tk.resolve("r", Result{})
		ids = append(ids, tk.ID)
	}
	// Oldest two resolved tickets are evicted, newest two retained.
	for _, id := range ids[:2] {
		if _, ok := reg.Get(id); ok {
			t.Fatalf("ticket %s survived past retention", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := reg.Get(id); !ok {
			t.Fatalf("ticket %s evicted while within retention", id)
		}
	}
	// A pending ticket is never evicted, however many resolve after it.
	pending := reg.New("pa", []string{"never"})
	for i := 0; i < 3; i++ {
		tk := reg.New("pa", []string{"r"})
		tk.resolve("r", Result{})
	}
	if _, ok := reg.Get(pending.ID); !ok {
		t.Fatal("pending ticket evicted")
	}
	if p, r := reg.Counts(); p != 1 || r != 2 {
		t.Fatalf("counts = (%d pending, %d retained), want (1, 2)", p, r)
	}
}

// TestTicketDuplicateRunNames is the regression test for the
// pending-leak: a bulk ticket naming the same run more than once used
// to collapse the duplicates into one index slot, so the second
// resolve found the slot already terminal, returned without
// decrementing pending, and the ticket stayed pending forever. Each
// duplicate must hold its own slot and the ticket must reach a
// terminal state after exactly one resolve per slot.
func TestTicketDuplicateRunNames(t *testing.T) {
	reg := NewRegistry(4)
	tk := reg.New("pa", []string{"a", "a", "b"})
	tk.resolve("a", Result{Nodes: 1})
	tk.resolve("a", Result{Err: errors.New("second write rejected")})
	if got := tk.Snapshot(); got.State != StatePending || got.Done != 2 {
		t.Fatalf("after both a-resolves: %+v", got)
	}
	tk.resolve("b", Result{Nodes: 2})
	got := tk.Snapshot()
	if got.State != StateFailed {
		t.Fatalf("duplicate-name ticket never reached a terminal state: %+v", got)
	}
	if got.Done != 3 {
		t.Fatalf("done = %d, want 3", got.Done)
	}
	// Resolves land on the duplicate slots in input order.
	if got.Runs[0].State != StateCommitted || got.Runs[1].State != StateFailed {
		t.Fatalf("duplicate slots resolved out of order: %+v", got.Runs)
	}
	if p, r := reg.Counts(); p != 0 || r != 1 {
		t.Fatalf("counts = (%d pending, %d retained), want (0, 1)", p, r)
	}
}

// TestTicketDuplicateRunNamesThroughPipeline drives the same shape
// end to end: duplicate-name jobs sharing one ticket, committed by
// the batcher as one batch, polled to a terminal state.
func TestTicketDuplicateRunNamesThroughPipeline(t *testing.T) {
	var (
		mu      sync.Mutex
		batches [][]string
	)
	commit, entered, release := gatedCommit(okCommit(&batches, &mu))
	p := New(commit, Options{QueueDepth: 8, BatchSize: 4})
	if err := p.Enqueue(&Job{Spec: "s", Run: "warm"}); err != nil {
		t.Fatal(err)
	}
	<-entered
	reg := NewRegistry(4)
	tk := reg.New("s", []string{"dup", "dup", "other"})
	for _, run := range []string{"dup", "dup", "other"} {
		if err := p.Enqueue(&Job{Spec: "s", Run: run, Ticket: tk}); err != nil {
			t.Fatalf("enqueue %s: %v", run, err)
		}
	}
	release()
	p.Close() // drains: every queued job has committed when it returns
	if got := tk.Snapshot(); got.State != StateCommitted || got.Done != 3 {
		t.Fatalf("terminal ticket = %+v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 || fmt.Sprint(batches[1]) != "[dup dup other]" {
		t.Fatalf("batches = %v, want the warm-up plus [dup dup other]", batches)
	}
}
