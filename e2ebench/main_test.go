package main

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.90, 50}, {1, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("unsorted median = %v, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := makeTraffic(w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := makeTraffic(w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("same seed gave different traffic")
			}
			c, err := makeTraffic(w, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, c) {
				t.Error("different seeds gave the same traffic")
			}
			_, fa, err := fixtureRunsOf(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, fb, err := fixtureRunsOf(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fa, fb) {
				t.Error("fixture documents differ between calls")
			}
		})
	}
}

func TestCohortWindowStaysConstantBelowThreshold(t *testing.T) {
	w, err := findWorkload("cohort-window")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := makeTraffic(w, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, fixture, err := fixtureRunsOf(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	cohort := map[string]bool{}
	for _, nr := range fixture {
		cohort[nr.Name] = true
	}
	size := len(cohort)
	for k, nr := range tr.Fresh {
		cohort[nr.Name] = true
		if len(cohort) >= analysis.DefaultIndexThreshold {
			t.Fatalf("cycle %d: cohort of %d reaches the index threshold", k, len(cohort))
		}
		if !cohort[tr.Deletes[k]] {
			t.Fatalf("cycle %d deletes %s, which is not stored", k, tr.Deletes[k])
		}
		delete(cohort, tr.Deletes[k])
		if len(cohort) != size {
			t.Fatalf("cycle %d: cohort size %d, want %d", k, len(cohort), size)
		}
	}
}

func TestNearestIndexedStaysAboveThreshold(t *testing.T) {
	w, err := findWorkload("nearest-indexed")
	if err != nil {
		t.Fatal(err)
	}
	for _, seconds := range []int{1, 10, 60} {
		tr, err := makeTraffic(w, 5, seconds)
		if err != nil {
			t.Fatal(err)
		}
		n := w.fixtureRuns(tr.Ops)
		if n < analysis.DefaultIndexThreshold {
			t.Fatalf("seconds=%d: cohort %d below the index threshold", seconds, n)
		}
		seen := map[int]bool{}
		for _, q := range tr.Queries {
			if seen[q] || q < 0 || q >= n {
				t.Fatalf("seconds=%d: query %d repeats or is out of range", seconds, q)
			}
			seen[q] = true
		}
	}
}

// TestNearestCheckCatchesASkippedNeighbor feeds checkAnswers a reply
// whose distances are all exact but whose last neighbor is farther
// than the true fifth nearest run, the answer an unsound index bound
// would give.
func TestNearestCheckCatchesASkippedNeighbor(t *testing.T) {
	w, err := findWorkload("nearest-indexed")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := makeTraffic(w, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, fixture, err := fixtureRunsOf(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSession(w, 1, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.results = make([]opResult, tr.Ops)
	var k int
	for k = range tr.Checked {
		break
	}
	query := s.queryOf(k)
	p := newParser(sp, fixture)
	var all []neighbor
	for _, name := range s.cohortAt(fixture, k) {
		if name == query {
			continue
		}
		d, err := p.distance(query, name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, neighbor{Run: name, Distance: d})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Distance < all[j].Distance })
	// farther is the first run strictly farther than the fifth nearest.
	farther := nearestK
	for farther < len(all) && all[farther].Distance == all[nearestK-1].Distance {
		farther++
	}
	if farther == len(all) {
		t.Fatal("every run is at the same distance from the query")
	}

	check := func(nbs []neighbor) bool {
		s.results[k] = opResult{OK: true}
		s.nearest = map[int][]nearestAnswer{k: {{Run: query, Neighbors: nbs}}}
		if err := s.checkAnswers(); err != nil {
			t.Fatal(err)
		}
		return s.results[k].OK
	}
	if !check(all[:nearestK]) {
		t.Fatalf("true nearest answer rejected: %s", s.results[k].Err)
	}
	skipped := append(append([]neighbor(nil), all[:nearestK-1]...), all[farther])
	if check(skipped) {
		t.Fatal("answer skipping the fifth nearest run passed the check")
	}
}
