// Package benchgate implements the CI performance-regression gate:
// it parses `go test -bench` output, compares ns/op and allocs/op
// against a committed JSON baseline, and reports every benchmark that
// regressed past a threshold. The committed baseline is the contract
// "this code is at least this fast"; the gate turns silent slowdowns
// into red CI the same way a failing test turns silent breakage red.
//
// Three kinds of metric are gated. allocs/op is deterministic across
// machines, so any regression there is a real code change. ns/op is
// noisy — different CI runners, thermal throttle, neighbors — so the
// threshold is generous (30% by default) and catches the step-change
// regressions (an accidental O(n²), a dropped cache, a lock in a hot
// loop) rather than micro-drift. Work counters — every other
// `<value> <unit>/op` column a benchmark reports, such as exact/op or
// decisions/op — count the algorithm's own steps, which no host noise
// moves, so they fail on any growth past 1%: a lost bound or a lost
// shortcut reds CI even when timings stay green. New benchmarks absent
// from the baseline pass trivially until `benchgate -update` records
// them.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Work holds the benchmark's work counters by unit, e.g.
	// "exact/op" or "decisions/op".
	Work map[string]float64 `json:"work,omitempty"`
}

// WorkThreshold is the growth a work counter may show over its
// baseline before the gate fails it.
const WorkThreshold = 0.01

// Baseline is the committed BENCH_baseline.json document.
type Baseline struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches `go test -bench` result lines:
//
//	BenchmarkName-8  123  4567 ns/op  89 B/op  10 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so baselines transfer between
// machines with different core counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// metricCol matches one `<value> <unit>/op` column after ns/op.
var metricCol = regexp.MustCompile(`([0-9.]+) (\S+)/op`)

// Parse reads benchmark results from `go test -bench` output,
// ignoring everything that is not a result line. Sub-benchmarks keep
// their full slash-joined name. A benchmark appearing multiple times
// (e.g. -count=N) keeps its fastest ns/op, smallest allocs/op and
// smallest value of each work counter — the least-noisy sample of each.
func Parse(r io.Reader) (map[string]Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := make(map[string]Result)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		res := Result{NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1, Work: map[string]float64{}}
		for _, col := range metricCol.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(col[1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad %s/op in %q: %w", col[2], sc.Text(), err)
			}
			switch col[2] {
			case "B":
				res.BytesPerOp = int64(v)
			case "allocs":
				res.AllocsPerOp = int64(v)
			default:
				res.Work[col[2]+"/op"] = v
			}
		}
		if have, ok := out[name]; ok {
			if have.NsPerOp < res.NsPerOp {
				res.NsPerOp = have.NsPerOp
			}
			if have.AllocsPerOp >= 0 && (res.AllocsPerOp < 0 || have.AllocsPerOp < res.AllocsPerOp) {
				res.AllocsPerOp = have.AllocsPerOp
			}
			if have.BytesPerOp >= 0 && (res.BytesPerOp < 0 || have.BytesPerOp < res.BytesPerOp) {
				res.BytesPerOp = have.BytesPerOp
			}
			for unit, v := range have.Work {
				if cur, ok := res.Work[unit]; !ok || v < cur {
					res.Work[unit] = v
				}
			}
		}
		out[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Finding is one gate verdict line.
type Finding struct {
	Name   string
	Metric string  // "ns/op", "allocs/op" or a work counter's unit
	Base   float64 // baseline value
	Cur    float64 // current value
	Ratio  float64 // cur / base
	Failed bool
}

func (f Finding) String() string {
	verdict := "ok"
	if f.Failed {
		verdict = "REGRESSION"
	}
	return fmt.Sprintf("%-12s %-40s %-12s %12.1f -> %12.1f  (%.2fx)",
		verdict, f.Name, f.Metric, f.Base, f.Cur, f.Ratio)
}

// Compare gates current results against the baseline. A benchmark
// fails when its ns/op or allocs/op exceeds baseline*(1+threshold), or
// a work counter exceeds baseline*(1+WorkThreshold).
// Benchmarks missing from either side are skipped (new benchmarks
// enter the baseline via -update; retired ones leave it the same
// way). Returns all findings (for the report) and whether any failed.
func Compare(base *Baseline, current map[string]Result, threshold float64) (findings []Finding, failed bool) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := current[name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 {
			f := Finding{Name: name, Metric: "ns/op", Base: b.NsPerOp, Cur: c.NsPerOp, Ratio: c.NsPerOp / b.NsPerOp}
			f.Failed = f.Ratio > 1+threshold
			findings = append(findings, f)
			failed = failed || f.Failed
		}
		if b.AllocsPerOp > 0 && c.AllocsPerOp >= 0 {
			f := Finding{
				Name: name, Metric: "allocs/op",
				Base: float64(b.AllocsPerOp), Cur: float64(c.AllocsPerOp),
				Ratio: float64(c.AllocsPerOp) / float64(b.AllocsPerOp),
			}
			f.Failed = f.Ratio > 1+threshold
			findings = append(findings, f)
			failed = failed || f.Failed
		}
		units := make([]string, 0, len(b.Work))
		for unit := range b.Work {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv := b.Work[unit]
			cv, ok := c.Work[unit]
			if bv <= 0 || !ok {
				continue
			}
			f := Finding{Name: name, Metric: unit, Base: bv, Cur: cv, Ratio: cv / bv}
			f.Failed = f.Ratio > 1+WorkThreshold
			findings = append(findings, f)
			failed = failed || f.Failed
		}
	}
	return findings, failed
}

// Load reads a baseline file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	if b.Benchmarks == nil {
		b.Benchmarks = map[string]Result{}
	}
	return &b, nil
}

// Save writes a baseline file (stable key order via MarshalIndent).
func Save(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Update merges current results into the baseline: every measured
// benchmark replaces (or creates) its entry; entries not measured
// this run are kept untouched.
func Update(b *Baseline, current map[string]Result) {
	for name, res := range current {
		b.Benchmarks[name] = res
	}
}
