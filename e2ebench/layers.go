package main

// Per-layer metrics of a traced run. Server and store numbers come
// from the traced seams during the traffic; the wfxml, codec, wfrun
// and core numbers come from direct calls to each layer's public
// functions on the run's own inputs, after the traffic.

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

type layerInputs struct {
	w             workload
	seconds       int
	sess          *session
	t             *tracer
	before, after layerSnapshot
	setup         setupTimes
	ledger        ledgerTimes
	p50, growth   float64
}

type ledgerTimes struct{ HeadsMS, VerifyMS float64 }

// timeLedger times what a metrics scrape and an audit pay after the
// run: LedgerHeads (median of 5) and VerifyLedger (median of 3).
func timeLedger(st *store.Store) (ledgerTimes, error) {
	var lt ledgerTimes
	var err error
	if lt.HeadsMS, err = timeMedian(5, func() error { _, _, err := st.LedgerHeads(); return err }); err != nil {
		return lt, err
	}
	lt.VerifyMS, err = timeMedian(3, func() error {
		rep, err := st.VerifyLedger()
		if err == nil && !rep.OK() {
			err = fmt.Errorf("ledger: %v", rep.Issues)
		}
		return err
	})
	return lt, err
}

// stageSlackMS is how far a request's stage charges may exceed its
// handler total before the decomposition counts it as overcharged:
// the stages and the total are read from separate clock calls. An
// overcharged request leaves a negative "other"; the count is
// reported per route and as server.stage.overcharged_ratio, not
// failed, because live completion charges its pairwise diff twice
// (once inside diffPair, once around it) on every completing PATCH.
const stageSlackMS = 0.01

// routeSums accumulate one route's requests.
type routeSums struct {
	n, overcharged                           int
	lat, total                               float64
	parse, diff, cache, store, ledger, other float64
}

// layerMetrics computes every per-layer metric and checks the
// decomposition: each client request has its server record, no
// handler outlasts its client-observed request, and the setup split
// leaves a non-negative remainder. The returned error reports a
// failed check; the metrics are complete either way.
func layerMetrics(in layerInputs) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ops := float64(in.sess.tr.Ops)
	var problems []string

	// server: per-request decomposition, summed per route.
	routes := map[string]*routeSums{}
	for _, rq := range in.sess.client.reqs {
		rt, ok := in.t.timing(rq.Span)
		if !ok {
			problems = append(problems, fmt.Sprintf("request span %d (%s) has no server timing record", rq.Span, rq.Route))
			continue
		}
		lat := ms(rq.Lat)
		if rt.TotalMS > lat {
			problems = append(problems, fmt.Sprintf("%s handler %.3fms exceeds client latency %.3fms", rq.Route, rt.TotalMS, lat))
		}
		stages := rt.ParseMS + rt.DiffMS + rt.CacheMS + rt.StoreMS + rt.LedgerMS
		rs := routes[rq.Route]
		if rs == nil {
			rs = &routeSums{}
			routes[rq.Route] = rs
		}
		if stages > rt.TotalMS+stageSlackMS {
			rs.overcharged++
		}
		rs.n++
		rs.lat += lat
		rs.total += rt.TotalMS
		rs.parse += rt.ParseMS
		rs.diff += rt.DiffMS
		rs.cache += rt.CacheMS
		rs.store += rt.StoreMS
		rs.ledger += rt.LedgerMS
		rs.other += rt.TotalMS - stages
	}
	var all routeSums
	names := make([]string, 0, len(routes))
	for name := range routes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-12s %6s %9s %9s %9s %9s %9s %9s %9s %9s %9s %6s\n",
		"route", "n", "client", "http", "handler", "parse", "diff", "cache", "store", "ledger", "other", "over")
	for _, name := range names {
		rs := routes[name]
		fmt.Fprintf(os.Stderr, "%-12s %6d %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %6d\n",
			name, rs.n, rs.lat/float64(rs.n), (rs.lat-rs.total)/float64(rs.n), rs.total/float64(rs.n),
			rs.parse/float64(rs.n), rs.diff/float64(rs.n), rs.cache/float64(rs.n), rs.store/float64(rs.n),
			rs.ledger/float64(rs.n), rs.other/float64(rs.n), rs.overcharged)
		all.lat += rs.lat
		all.total += rs.total
		all.parse += rs.parse
		all.diff += rs.diff
		all.cache += rs.cache
		all.store += rs.store
		all.ledger += rs.ledger
		all.other += rs.other
		all.overcharged += rs.overcharged
	}
	fmt.Fprintln(os.Stderr, "per request, ms: client = http + handler; handler = parse + diff + cache + store + ledger + other; over counts requests whose stages exceed their handler total")
	put("server.http_ms", "ms", (all.lat-all.total)/ops)
	put("server.handler_ms", "ms", all.total/ops)
	put("server.stage.parse_ms", "ms", all.parse/ops)
	put("server.stage.diff_ms", "ms", all.diff/ops)
	put("server.stage.cache_ms", "ms", all.cache/ops)
	put("server.stage.store_ms", "ms", all.store/ops)
	put("server.stage.ledger_ms", "ms", all.ledger/ops)
	put("server.stage.other_ms", "ms", all.other/ops)
	put("server.stage.overcharged_ratio", "1", ratio(float64(all.overcharged), float64(len(in.sess.client.reqs))))
	for _, route := range []string{"outliers", "cluster", "nearest"} {
		var v float64
		if rs := routes[route]; rs != nil {
			v = rs.total / ops
		}
		put("cluster."+route+".handler_ms", "ms", v)
	}
	b, a := in.before.stats, in.after.stats
	put("server.cache_hit_ratio", "1", ratio(float64(a.CacheHits-b.CacheHits), float64(a.CacheHits-b.CacheHits+a.CacheMisses-b.CacheMisses)))
	put("server.engine_reuse_ratio", "1", ratio(float64(a.EngineReused-b.EngineReused), float64(a.EngineGets-b.EngineGets)))

	// ingest
	put("ingest.jobs_per_batch", "count", ratio(float64(a.Committed-b.Committed), float64(a.Batches-b.Batches)))
	put("ingest.batches", "count", float64(a.Batches-b.Batches))
	put("ingest.max_depth", "count", float64(a.MaxDepth))

	// analysis / metricindex
	exact, pruned := float64(a.ExactDiffs-b.ExactDiffs), float64(a.PrunedPairs-b.PrunedPairs)
	put("analysis.exact_diffs_per_op", "count", exact/ops)
	put("metricindex.pruned_ratio", "1", ratio(pruned, pruned+exact))

	// store: blob traffic by key class during the traffic.
	var synced, setupRead int64
	for _, kind := range blobKinds {
		cb, ca := in.before.blobs[kind], in.after.blobs[kind]
		put("store.backend."+kind+".busy_ms", "ms", float64(ca.BusyNS-cb.BusyNS)/1e6/ops)
		put("store.backend."+kind+".bytes_written_per_run", "B", float64(ca.BytesWritten-cb.BytesWritten)/ops)
		synced += ca.SyncedAppends - cb.SyncedAppends
		setupRead += cb.BytesRead
	}
	mb, ma := in.before.blobs["manifest"], in.after.blobs["manifest"]
	put("store.synced_appends_per_run", "count", float64(synced)/ops)
	put("store.manifest_bytes_per_commit", "B", ratio(float64(ma.BytesWritten-mb.BytesWritten), float64(ma.Writes-mb.Writes)))
	put("store.bytes_read_setup", "B", float64(setupRead))
	put("store.repo_bytes_per_input_byte", "1", in.growth)

	// set-up split of the warm start that served the traffic.
	st := in.setup
	other := ms(st.Total) - ms(st.Preload) - ms(st.Snapshot) - ms(st.Warm)
	if other < 0 {
		problems = append(problems, fmt.Sprintf("setup split exceeds its total by %.3fms", -other))
	}
	put("setup.total_ms", "ms", ms(st.Total))
	put("store.preload_ms", "ms", ms(st.Preload))
	put("store.snapshot_ms", "ms", ms(st.Snapshot))
	put("server.warm_ms", "ms", ms(st.Warm))
	put("setup.other_ms", "ms", other)
	fmt.Fprintf(os.Stderr, "setup, ms: %.3f = preload %.3f + snapshot %.3f + warm %.3f + other %.3f\n",
		ms(st.Total), ms(st.Preload), ms(st.Snapshot), ms(st.Warm), other)

	// ledger
	put("ledger.heads_ms", "ms", in.ledger.HeadsMS)
	put("ledger.verify_ms", "ms", in.ledger.VerifyMS)

	// go runtime
	rb, ra := in.before.rt, in.after.rt
	put("go.alloc_bytes_per_op", "B", float64(ra.AllocBytes-rb.AllocBytes)/ops)
	put("go.gc_cycles_per_op", "count", float64(ra.GCCycles-rb.GCCycles)/ops)
	put("go.gc_pause_ms", "ms", float64(ra.PauseNS-rb.PauseNS)/1e6)

	// wfxml / codec / wfrun / core, called directly.
	direct, err := directLayers(in)
	if err != nil {
		return nil, err
	}
	for name, v := range direct {
		m[name] = v
	}

	put("trace.latency_p50_ms", "ms", in.p50)

	if len(problems) > 0 {
		return m, fmt.Errorf("%d problems, first: %s", len(problems), problems[0])
	}
	return m, nil
}

// directSample picks the run documents the direct calls use: those
// of the run's checked ops, in op order.
func directSample(in layerInputs, fixture []namedRun) []namedRun {
	tr := in.sess.tr
	checked := make([]int, 0, len(tr.Checked))
	for k := range tr.Checked {
		checked = append(checked, k)
	}
	sort.Ints(checked)
	docs := make([]namedRun, 0, len(checked))
	for _, k := range checked {
		if in.w.name == "nearest-indexed" {
			docs = append(docs, fixture[tr.Queries[k]])
		} else {
			docs = append(docs, tr.Fresh[k])
		}
	}
	return docs
}

// directLayers times each layer's public functions on the sample:
// medians per call.
func directLayers(in layerInputs) (map[string]metric, error) {
	sp, fixture, err := fixtureRunsOf(in.w, in.seconds)
	if err != nil {
		return nil, err
	}
	docs := directSample(in, fixture)
	var decode, encode, undecode, frameBytes, apply, complete []float64
	p := newParser(sp, fixture, in.sess.tr.Fresh)
	for _, d := range docs {
		t0 := time.Now()
		r, err := wfxml.DecodeRun(bytes.NewReader(d.XML), sp)
		if err != nil {
			return nil, err
		}
		decode = append(decode, ms(time.Since(t0)))
		p.runs[d.Name] = r

		t0 = time.Now()
		frame, err := codec.EncodeRun(r)
		if err != nil {
			return nil, err
		}
		encode = append(encode, ms(time.Since(t0)))
		frameBytes = append(frameBytes, float64(len(frame)))

		t0 = time.Now()
		if _, err := codec.DecodeRun(frame, sp); err != nil {
			return nil, err
		}
		undecode = append(undecode, ms(time.Since(t0)))

		a, c, err := timeLive(sp, wfrun.Events(r))
		if err != nil {
			return nil, fmt.Errorf("live %s: %w", d.Name, err)
		}
		apply = append(apply, a)
		complete = append(complete, c)
	}
	eng := core.NewEngine(cost.Unit{})
	var diffs, scripts []float64
	for i := 1; i < len(docs); i++ {
		ra, err := p.run(docs[i-1].Name)
		if err != nil {
			return nil, err
		}
		rb, err := p.run(docs[i].Name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := eng.Diff(ra, rb)
		if err != nil {
			return nil, err
		}
		diffs = append(diffs, ms(time.Since(t0)))
		t0 = time.Now()
		if _, _, err := res.Script(); err != nil {
			return nil, err
		}
		scripts = append(scripts, ms(time.Since(t0)))
	}
	var frameMean float64
	for _, b := range frameBytes {
		frameMean += b / float64(len(frameBytes))
	}
	return map[string]metric{
		"wfxml.decode_run_ms":    {median(decode), "ms"},
		"codec.encode_run_ms":    {median(encode), "ms"},
		"codec.decode_run_ms":    {median(undecode), "ms"},
		"codec.frame_bytes":      {frameMean, "B"},
		"wfrun.live_apply_ms":    {median(apply), "ms"},
		"wfrun.live_complete_ms": {median(complete), "ms"},
		"core.diff_ms":           {median(diffs), "ms"},
		"core.script_ms":         {median(scripts), "ms"},
	}, nil
}

// timeLive feeds a run's events to a fresh wfrun.Live in the two
// halves cohort-window streams, syncing after each, then completes
// it.
func timeLive(sp *spec.Spec, evs []wfrun.Event) (applyMS, completeMS float64, err error) {
	lv := wfrun.NewLive(sp)
	half := len(evs) / 2
	t0 := time.Now()
	for _, part := range [][]wfrun.Event{evs[:half], evs[half:]} {
		for _, ev := range part {
			if err := lv.Append(ev); err != nil {
				return 0, 0, err
			}
		}
		lv.Sync()
	}
	applyMS = ms(time.Since(t0))
	t0 = time.Now()
	if _, err := lv.Complete(); err != nil {
		return 0, 0, err
	}
	return applyMS, ms(time.Since(t0)), nil
}
