// Package ingest implements the group-commit pipeline between the
// HTTP server and the store. Every single-run import is enqueued as a
// Job on a bounded queue; one batcher goroutine drains the queue into
// batches and hands each batch to a CommitFunc that performs ONE
// snapshot-segment append and ONE ledger append however many runs it
// carries. A batch flushes when it holds BatchSize jobs or when the
// queue runs dry, whichever comes first: a lone importer pays no added
// latency, and batches form on their own whenever jobs arrive faster
// than commits complete. Per-job results travel back on the job's
// response channel (synchronous clients park there) or onto its
// Ticket (asynchronous clients poll).
//
// The batcher never commits concurrently with itself, so commit
// functions see strictly ordered batches: jobs enqueued earlier are
// always committed no later than jobs enqueued after them.
package ingest

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by Enqueue when the bounded queue is at
// capacity; HTTP callers translate it into 429 + Retry-After.
var ErrQueueFull = errors.New("ingest: queue full")

// ErrClosed is returned by Enqueue after Close has begun draining;
// HTTP callers translate it into 503.
var ErrClosed = errors.New("ingest: pipeline closed")

// Result is the per-job outcome of a batch commit.
type Result struct {
	Err   error
	Nodes int
	Edges int
	// Hash is the hex content hash of the committed codec frame, as
	// attested to the provenance ledger.
	Hash string
	// Parse is the time the commit spent decoding the job's document.
	Parse time.Duration
}

// Job is one run import traveling through the pipeline. Exactly one
// of Resp/Ticket (or both) should be set; the pipeline — not the
// CommitFunc — delivers the Result to whichever is present, so a
// commit implementation cannot forget a waiter.
type Job struct {
	Spec string
	Run  string
	XML  []byte
	// Resp receives the job's Result after its batch commits. It must
	// be buffered (capacity >= 1): the batcher sends without blocking.
	Resp chan Result
	// Ticket, when set, is resolved with the job's Result for
	// asynchronous clients polling GET /v1/tickets/{id}.
	Ticket *Ticket
}

// CommitFunc commits one batch and returns one Result per job, in
// batch order. Returning fewer results marks the remainder failed.
type CommitFunc func(jobs []*Job) []Result

// Options tune a Pipeline. Zero values select the defaults.
type Options struct {
	// QueueDepth bounds the number of jobs waiting for the batcher;
	// enqueueing past it fails with ErrQueueFull.
	QueueDepth int
	// BatchSize caps how many jobs one commit may carry; a batch
	// flushes short as soon as the queue runs dry.
	BatchSize int
	// SlowCommit is the watchdog threshold: commits slower than this
	// increment the SlowCommits counter surfaced in /stats.
	SlowCommit time.Duration
}

// Defaults applied by New for zero Options fields.
const (
	DefaultQueueDepth = 1024
	DefaultBatchSize  = 64
	DefaultSlowCommit = 500 * time.Millisecond
)

// Stats is a point-in-time snapshot of pipeline counters.
type Stats struct {
	QueueDepth    int     `json:"queue_depth"`    // jobs currently waiting
	QueueCapacity int     `json:"queue_capacity"` // configured bound
	MaxDepth      int64   `json:"max_depth"`      // deepest the queue has been (high-water mark)
	Enqueued      int64   `json:"enqueued"`       // jobs accepted onto the queue
	Rejected      int64   `json:"rejected"`       // jobs refused with ErrQueueFull
	Committed     int64   `json:"committed"`      // jobs whose commit succeeded
	Failed        int64   `json:"failed"`         // jobs whose commit returned an error
	Batches       int64   `json:"batches"`        // commits performed
	MaxBatch      int64   `json:"max_batch"`      // largest batch committed
	AvgBatch      float64 `json:"avg_batch"`
	SlowCommits   int64   `json:"slow_commits"` // commits slower than Options.SlowCommit
	LastCommitMS  float64 `json:"last_commit_ms"`
	Closed        bool    `json:"-"`
}

// Pipeline is the group-commit queue + batcher pair. Create with New;
// all methods are safe for concurrent use.
type Pipeline struct {
	opts   Options
	commit CommitFunc
	queue  chan *Job
	done   chan struct{}

	closeMu sync.RWMutex
	closed  bool

	enqueued, rejected   atomic.Int64
	committed, failed    atomic.Int64
	batches, jobsBatched atomic.Int64
	maxBatch             atomic.Int64
	maxDepth             atomic.Int64
	slowCommits          atomic.Int64
	lastCommitNanos      atomic.Int64
}

// New starts a pipeline committing through fn.
func New(fn CommitFunc, opts Options) *Pipeline {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.SlowCommit <= 0 {
		opts.SlowCommit = DefaultSlowCommit
	}
	p := &Pipeline{
		opts:   opts,
		commit: fn,
		queue:  make(chan *Job, opts.QueueDepth),
		done:   make(chan struct{}),
	}
	go p.run()
	return p
}

// Enqueue hands a job to the batcher without blocking: ErrQueueFull
// when the queue is at capacity, ErrClosed after Close.
func (p *Pipeline) Enqueue(j *Job) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.queue <- j:
		p.enqueued.Add(1)
		// Track the deepest the queue has been — the saturation gauge
		// /metrics exposes. The read races benignly with the batcher
		// draining; the high-water mark only ever moves up.
		if depth := int64(len(p.queue)); depth > p.maxDepth.Load() {
			for {
				cur := p.maxDepth.Load()
				if depth <= cur || p.maxDepth.CompareAndSwap(cur, depth) {
					break
				}
			}
		}
		return nil
	default:
		p.rejected.Add(1)
		return ErrQueueFull
	}
}

// Close drains the pipeline: no new jobs are accepted, every job
// already queued is committed, and Close returns once the batcher has
// exited — the graceful-shutdown ordering is Close the pipeline first,
// then the store. Safe to call more than once.
func (p *Pipeline) Close() {
	p.closeMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.closeMu.Unlock()
	<-p.done
}

// run is the batcher goroutine: block for the first job, gather the
// rest of the batch, commit, repeat until the queue is closed and
// drained (a closed buffered channel still delivers its backlog).
func (p *Pipeline) run() {
	defer close(p.done)
	for {
		first, ok := <-p.queue
		if !ok {
			return
		}
		p.flush(p.gather(first))
	}
}

// gather assembles one batch starting from its first job: it drains
// the queue without blocking, up to BatchSize jobs.
func (p *Pipeline) gather(first *Job) []*Job {
	batch := append(make([]*Job, 0, p.opts.BatchSize), first)
	for len(batch) < p.opts.BatchSize {
		select {
		case j, ok := <-p.queue:
			if !ok {
				return batch
			}
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// flush commits one batch and fans its results back out to the
// waiters. Only the batcher goroutine calls flush, so the max/last
// counters need no compare-and-swap loops.
func (p *Pipeline) flush(batch []*Job) {
	start := time.Now()
	results := p.commit(batch)
	elapsed := time.Since(start)

	p.batches.Add(1)
	p.jobsBatched.Add(int64(len(batch)))
	if n := int64(len(batch)); n > p.maxBatch.Load() {
		p.maxBatch.Store(n)
	}
	p.lastCommitNanos.Store(elapsed.Nanoseconds())
	if elapsed > p.opts.SlowCommit {
		p.slowCommits.Add(1)
	}

	for i, j := range batch {
		res := Result{Err: errors.New("ingest: commit returned no result for job")}
		if i < len(results) {
			res = results[i]
		}
		if res.Err != nil {
			p.failed.Add(1)
		} else {
			p.committed.Add(1)
		}
		if j.Ticket != nil {
			j.Ticket.resolve(j.Run, res)
		}
		if j.Resp != nil {
			j.Resp <- res
		}
	}
}

// Stats snapshots the counters.
func (p *Pipeline) Stats() Stats {
	p.closeMu.RLock()
	closed := p.closed
	p.closeMu.RUnlock()
	st := Stats{
		QueueDepth:    len(p.queue),
		QueueCapacity: p.opts.QueueDepth,
		MaxDepth:      p.maxDepth.Load(),
		Enqueued:      p.enqueued.Load(),
		Rejected:      p.rejected.Load(),
		Committed:     p.committed.Load(),
		Failed:        p.failed.Load(),
		Batches:       p.batches.Load(),
		MaxBatch:      p.maxBatch.Load(),
		SlowCommits:   p.slowCommits.Load(),
		LastCommitMS:  float64(p.lastCommitNanos.Load()) / 1e6,
		Closed:        closed,
	}
	if st.Batches > 0 {
		st.AvgBatch = float64(p.jobsBatched.Load()) / float64(st.Batches)
	}
	return st
}
