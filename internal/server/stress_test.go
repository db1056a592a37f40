package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
)

// TestCohortAnalyticsRaceStress hammers the incremental cohort matrix
// from all sides under the race detector: importers add and delete
// runs while readers pull /cluster and /nearest answers. Every 200
// response must be internally consistent, and once the writers settle
// the served matrix must equal a from-scratch recompute — a sync
// against the store's run hashes may never retain a stale row.
func TestCohortAnalyticsRaceStress(t *testing.T) {
	srv, st := seedServer(t, 4, Options{CacheSize: 32})

	// Pre-encode distinct runs so the writer goroutines do no
	// generation work of their own.
	bodies := make([][]byte, 6)
	for i := range bodies {
		bodies[i] = encodeRun(t, st, int64(1000+i))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: continuous import/overwrite/delete churn.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("churn%d", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := bodies[(w*3+i)%len(bodies)]
				if rec := do(t, srv, "POST", "/v1/specs/pa/runs/"+name, body, nil); rec.Code != 201 {
					t.Errorf("import %s = %d %q", name, rec.Code, rec.Body.String())
					return
				}
				if i%3 == 2 {
					if rec := do(t, srv, "DELETE", "/v1/specs/pa/runs/"+name, nil, nil); rec.Code != 200 {
						t.Errorf("delete %s = %d", name, rec.Code)
						return
					}
				}
			}
		}(w)
	}

	// Readers: clustering and nearest-neighbor queries racing the
	// churn. 400s are legitimate (k can exceed a momentarily shrunken
	// cohort); 404s happen when a churn run vanishes between queries;
	// anything else is a bug, as is an internally inconsistent 200.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					var p clusterPayload
					rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2&seed=3", nil, &p)
					if rec.Code != 200 && rec.Code != 400 {
						t.Errorf("cluster = %d %q", rec.Code, rec.Body.String())
						return
					}
					if rec.Code == 200 {
						if len(p.Clusters) != 2 {
							t.Errorf("cluster shape: %+v", p)
							return
						}
						for _, c := range p.Clusters {
							ok := false
							for _, r := range c.Runs {
								if r == c.Medoid {
									ok = true
								}
							}
							if !ok {
								t.Errorf("medoid outside cluster: %+v", p)
								return
							}
						}
					}
				case 1:
					var p nearestPayload
					rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=3", nil, &p)
					if rec.Code != 200 && rec.Code != 400 && rec.Code != 404 {
						t.Errorf("nearest = %d %q", rec.Code, rec.Body.String())
						return
					}
					if rec.Code == 200 {
						for j, n := range p.Neighbors {
							if n.Run == "r0" {
								t.Errorf("run is its own neighbor: %+v", p)
								return
							}
							if j > 0 && n.Distance < p.Neighbors[j-1].Distance {
								t.Errorf("neighbors unsorted: %+v", p)
								return
							}
						}
					}
				case 2:
					var p outliersPayload
					rec := do(t, srv, "GET", "/v1/specs/pa/outliers?k=2", nil, &p)
					if rec.Code != 200 && rec.Code != 400 {
						t.Errorf("outliers = %d %q", rec.Code, rec.Body.String())
						return
					}
				}
			}
		}(g)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settle: the next query must reflect exactly the on-disk cohort,
	// and every served distance must match a from-scratch recompute.
	runs, err := st.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	var final nearestPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=999", nil, &final); rec.Code != 200 {
		t.Fatalf("settle nearest = %d %q", rec.Code, rec.Body.String())
	}
	if len(final.Neighbors) != len(runs)-1 {
		t.Fatalf("settled cohort has %d neighbors for %d runs", len(final.Neighbors), len(runs))
	}
	fresh, err := st.Cohort("pa", runs, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	freshIdx := make(map[string]int, len(fresh.Labels))
	for i, l := range fresh.Labels {
		freshIdx[l] = i
	}
	for _, n := range final.Neighbors {
		j, ok := freshIdx[n.Run]
		if !ok {
			t.Fatalf("served neighbor %q not on disk (stale row retained)", n.Run)
		}
		if want := fresh.D[freshIdx["r0"]][j]; math.Abs(n.Distance-want) > 1e-9 {
			t.Fatalf("stale distance for %q: served %g, recompute %g", n.Run, n.Distance, want)
		}
	}
	// And the long-lived matrix itself agrees cell-for-cell.
	e := srv.cohorts.entry("pa", cost.Unit{})
	mx := e.hc.View().Matrix
	if len(mx.Labels) != len(fresh.Labels) {
		t.Fatalf("matrix has %d members, disk has %d", len(mx.Labels), len(fresh.Labels))
	}
	for i, a := range mx.Labels {
		for j, b := range mx.Labels {
			if want := fresh.D[freshIdx[a]][freshIdx[b]]; math.Abs(mx.D[i][j]-want) > 1e-9 {
				t.Fatalf("stale cell (%s,%s): %g vs %g", a, b, mx.D[i][j], want)
			}
		}
	}
}

// notifyingRecorder wraps a ResponseRecorder to signal the first body
// write, so a test can abort a request exactly once streaming began.
// The first write then blocks until hold closes: the build cannot
// finish its remaining pairs before the test has aborted it, which on
// a small cohort it otherwise sometimes does.
type notifyingRecorder struct {
	*httptest.ResponseRecorder
	once  sync.Once
	first chan struct{}
	hold  <-chan struct{}
}

func (n *notifyingRecorder) Write(b []byte) (int, error) {
	n.once.Do(func() {
		close(n.first)
		<-n.hold
	})
	return n.ResponseRecorder.Write(b)
}

func (n *notifyingRecorder) Flush() {}

// TestCohortStreamAbortMidFlight is the regression test for the
// in-flight cohort guard: a streaming client that goes away while the
// matrix is still being computed must abort the fan-out promptly and
// report the abort in-band — not hang the workers, panic, or be served
// to completion. Before analysis.Options.Context existed the fan-out
// always ran to the last pair with the progress callback writing into
// a dead connection.
func TestCohortStreamAbortMidFlight(t *testing.T) {
	srv, _ := seedServer(t, 9, Options{CacheSize: 8})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/specs/pa/cohort?stream=1", nil).WithContext(ctx)
	rec := &notifyingRecorder{ResponseRecorder: httptest.NewRecorder(), first: make(chan struct{}), hold: ctx.Done()}

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		srv.ServeHTTP(rec, req)
	}()
	select {
	case <-rec.first:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never started")
	}
	cancel()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after client abort")
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"type":"error"`) || !strings.Contains(body, "aborted") {
		t.Fatalf("aborted stream body lacks in-band error:\n%s", body)
	}
	if strings.Contains(body, `"type":"result"`) {
		t.Fatalf("aborted stream still delivered a result:\n%s", body)
	}

	// The service is healthy afterwards: the same cohort completes.
	rec2 := do(t, srv, "GET", "/v1/specs/pa/cohort", nil, nil)
	if rec2.Code != http.StatusOK {
		t.Fatalf("cohort after abort = %d %q", rec2.Code, rec2.Body.String())
	}
}
