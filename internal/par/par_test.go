package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for n, want := range map[int]int{-1: 1, 0: 1, 1: 1, procs: procs, procs + 5: procs} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestForVisitsEachIndexOnce: every index in [0, n) is visited exactly
// once, and every worker name is below the worker count, including
// when there are more workers than indices.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 7}, {3, 1000}, {8, 3}, {4, 4}} {
		visits := make([]atomic.Int32, c.n)
		err := For(c.workers, c.n, func(w, i int) error {
			if w < 0 || w >= c.workers {
				return fmt.Errorf("worker %d of %d", w, c.workers)
			}
			visits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("For(%d, %d): %v", c.workers, c.n, err)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("For(%d, %d) visited index %d %d times", c.workers, c.n, i, v)
			}
		}
	}
}

func TestForEmptyNeverCalls(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if err := For(workers, 0, func(w, i int) error {
			t.Errorf("For(%d, 0) called fn(%d, %d)", workers, w, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForReturnsLowestFailure: when several indices fail, For returns
// the lowest one's error, even when a higher one fails first.
func TestForReturnsLowestFailure(t *testing.T) {
	higherFailed := make(chan struct{})
	var once sync.Once
	err := For(4, 100, func(_, i int) error {
		switch {
		case i < 10:
			return nil
		case i == 10:
			<-higherFailed
		default:
			defer once.Do(func() { close(higherFailed) })
		}
		return fmt.Errorf("index %d", i)
	})
	if err == nil || err.Error() != "index 10" {
		t.Fatalf("For = %v, want the error of index 10", err)
	}
}

// TestForStopsClaimingAfterFailure: once a call has failed and the
// calls in flight have returned, no further index is claimed. Index 1
// stays in flight until the goroutine whose call failed has exited,
// which it does only after recording the failure.
func TestForStopsClaimingAfterFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	started := make(chan struct{})
	var calls atomic.Int32
	err := For(2, 1000, func(_, i int) error {
		calls.Add(1)
		switch i {
		case 0:
			<-started
			return errors.New("index 0")
		case 1:
			close(started)
			for runtime.NumGoroutine() > base+1 {
				runtime.Gosched()
			}
		}
		return nil
	})
	if err == nil || err.Error() != "index 0" {
		t.Fatalf("For = %v, want the error of index 0", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d calls, want 2: an index past the failure was claimed", n)
	}
}

// TestForOneWorkerRunsInline: with one worker, fn runs on the caller's
// goroutine, so a panic in fn reaches the caller.
func TestForOneWorkerRunsInline(t *testing.T) {
	defer func() {
		if r := recover(); r != "inline" {
			t.Fatalf("recovered %v, want the panic of fn", r)
		}
	}()
	_ = For(1, 3, func(_, i int) error { panic("inline") })
	t.Fatal("For returned after fn panicked")
}
