package server

// Differential tests for the sharded multi-tenant repository: a server
// over a 2-shard backend must answer /v1/diff, /v1/cluster and /proof
// byte-identically to a server over a plain single backend given the
// same imports — and keep doing so after the shard processes are
// killed and reopened over the same directories, for both the fs and
// the object backend. Sharding is a placement concern; it must never
// leak into any response body.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/wfxml"
)

// seedSpecNamed stores the PA catalog workflow under an arbitrary
// tenant name.
func seedSpecNamed(t *testing.T, st *store.Store, name string) {
	t.Helper()
	sp, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec(name, sp); err != nil {
		t.Fatal(err)
	}
}

// encodeRunFor renders one deterministic run document against a stored
// specification, so every arm imports the exact same bytes.
func encodeRunFor(t *testing.T, st *store.Store, spec string, seed int64, name string) []byte {
	t.Helper()
	sp, err := st.LoadSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r, name); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shardedTargets are the endpoints whose bodies must not depend on how
// specs are placed across backends.
var shardedTargets = []string{
	"/v1/specs",
	"/v1/specs/pa/runs",
	"/v1/specs/pa/diff/r0/r1",
	"/v1/specs/pa/diff/r1/r2",
	"/v1/specs/pa/cluster?k=2&seed=9",
	"/v1/specs/pa/runs/r0/proof",
	"/v1/specs/pa/runs/r2/proof",
	"/v1/specs/sa/runs/r0/proof",
}

// openShards builds one backend per directory; the store layer sees
// them only through the sharded router.
func openShards(t *testing.T, kind string, dirs []string) []store.Backend {
	t.Helper()
	shards := make([]store.Backend, len(dirs))
	for i, dir := range dirs {
		be, err := store.NewBackend(kind, dir)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = be
	}
	return shards
}

// seedAll imports the same spec + run bodies into every server, via
// the same HTTP path, in the same order.
func seedAll(t *testing.T, stores []*store.Store, servers []*Server) {
	t.Helper()
	// Two tenants, so the 2-shard arm actually exercises routing; the
	// run bodies are encoded once and posted to every arm.
	type imp struct{ spec, run string }
	var imports []imp
	for _, spec := range []string{"pa", "sa"} {
		for i := 0; i < 3; i++ {
			imports = append(imports, imp{spec, fmt.Sprintf("r%d", i)})
		}
	}
	for _, spec := range []string{"pa", "sa"} {
		for _, st := range stores {
			seedSpecNamed(t, st, spec)
		}
	}
	for seed, im := range imports {
		body := encodeRunFor(t, stores[0], im.spec, int64(4000+seed), im.run)
		for i, srv := range servers {
			rec := do(t, srv, "POST", "/v1/specs/"+im.spec+"/runs/"+im.run, body, nil)
			if rec.Code != http.StatusCreated {
				t.Fatalf("arm %d: import %s/%s = %d %q", i, im.spec, im.run, rec.Code, rec.Body.String())
			}
		}
	}
}

// requireSameAnswers asserts byte-identical bodies across servers for
// every placement-independent endpoint.
func requireSameAnswers(t *testing.T, label string, single, sharded *Server) {
	t.Helper()
	for _, target := range shardedTargets {
		rs := do(t, single, "GET", target, nil, nil)
		rh := do(t, sharded, "GET", target, nil, nil)
		if rs.Code != http.StatusOK || rh.Code != http.StatusOK {
			t.Errorf("%s: %s: single %d, sharded %d (%q)", label, target, rs.Code, rh.Code, truncate(rh.Body.String()))
			continue
		}
		if !bytes.Equal(rs.Body.Bytes(), rh.Body.Bytes()) {
			t.Errorf("%s: %s answers differ:\nsingle:  %q\nsharded: %q",
				label, target, truncate(rs.Body.String()), truncate(rh.Body.String()))
		}
	}
}

func TestShardedServerByteIdenticalToSingle(t *testing.T) {
	for _, kind := range []string{"fs", "object"} {
		t.Run(kind, func(t *testing.T) {
			singleDir := t.TempDir()
			shardDirs := []string{t.TempDir(), t.TempDir()}

			stSingle := store.OpenBackend(mustBackend(t, kind, singleDir))
			stSharded, err := store.OpenSharded(openShards(t, kind, shardDirs)...)
			if err != nil {
				t.Fatal(err)
			}
			srvSingle := New(stSingle, Options{})
			srvSharded := New(stSharded, Options{})

			seedAll(t, []*store.Store{stSingle, stSharded}, []*Server{srvSingle, srvSharded})
			requireSameAnswers(t, kind+"/warm", srvSingle, srvSharded)

			// Kill and restart the sharded arm: close the store, reopen
			// fresh backends over the same directories. Everything —
			// including the ledger proofs — must replay identically.
			srvSharded.Close()
			if err := stSharded.Close(); err != nil {
				t.Fatal(err)
			}
			stSharded, err = store.OpenSharded(openShards(t, kind, shardDirs)...)
			if err != nil {
				t.Fatal(err)
			}
			srvSharded = New(stSharded, Options{})
			requireSameAnswers(t, kind+"/restarted", srvSingle, srvSharded)

			// And with the shard order reversed: discovery pins every
			// spec back to the shard that already holds it, so even a
			// reshuffled configuration serves the same bytes.
			srvSharded.Close()
			if err := stSharded.Close(); err != nil {
				t.Fatal(err)
			}
			reversed := openShards(t, kind, []string{shardDirs[1], shardDirs[0]})
			stSharded, err = store.OpenSharded(reversed...)
			if err != nil {
				t.Fatal(err)
			}
			srvSharded = New(stSharded, Options{})
			requireSameAnswers(t, kind+"/reversed", srvSingle, srvSharded)

			srvSingle.Close()
			srvSharded.Close()
		})
	}
}

func mustBackend(t *testing.T, kind, dir string) store.Backend {
	t.Helper()
	be, err := store.NewBackend(kind, dir)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// TestShardedStatsAndMetrics pins the observability surface: /v1/stats
// gains a storage section naming the backend and one entry per shard,
// and /v1/metrics exposes the per-shard gauge/counter families.
func TestShardedStatsAndMetrics(t *testing.T) {
	stSharded, err := store.OpenSharded(store.NewMemoryBackend(), store.NewMemoryBackend())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(stSharded, Options{})
	defer srv.Close()
	stores := []*store.Store{stSharded}
	seedAll(t, stores, []*Server{srv})

	var payload struct {
		Storage struct {
			Backend string             `json:"backend"`
			Shards  []store.ShardStats `json:"shards"`
		} `json:"storage"`
	}
	if rec := do(t, srv, "GET", "/v1/stats", nil, &payload); rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	if payload.Storage.Backend != "sharded" {
		t.Fatalf("storage backend = %q, want sharded", payload.Storage.Backend)
	}
	if len(payload.Storage.Shards) != 2 {
		t.Fatalf("shard stats entries = %d, want 2", len(payload.Storage.Shards))
	}
	writes := int64(0)
	for _, sh := range payload.Storage.Shards {
		if sh.Kind != "memory" {
			t.Fatalf("shard %d kind = %q, want memory", sh.Index, sh.Kind)
		}
		// "pa" hashes to shard 0 and "sa" to shard 1, so a healthy ring
		// places exactly one tenant on each.
		if sh.Specs != 1 {
			t.Errorf("shard %d holds %d specs, want 1", sh.Index, sh.Specs)
		}
		if sh.Writes == 0 || sh.BytesWritten == 0 {
			t.Errorf("shard %d counted no traffic: %+v", sh.Index, sh)
		}
		writes += sh.Writes
	}
	if writes == 0 {
		t.Fatal("no writes counted across shards after imports")
	}

	rec := do(t, srv, "GET", "/v1/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`provdiff_storage_shard_specs{shard="0",kind="memory"}`,
		`provdiff_storage_shard_specs{shard="1",kind="memory"}`,
		`provdiff_storage_shard_writes_total{shard="0",kind="memory"}`,
		`provdiff_storage_shard_appends_total{shard="1",kind="memory"}`,
		`provdiff_storage_shard_read_bytes_total{shard="0",kind="memory"}`,
		`provdiff_storage_shard_written_bytes_total{shard="1",kind="memory"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// A single-backend server reports its kind and omits the shard list.
	stSingle, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srvSingle := New(stSingle, Options{})
	defer srvSingle.Close()
	payload.Storage.Backend, payload.Storage.Shards = "", nil
	if rec := do(t, srvSingle, "GET", "/v1/stats", nil, &payload); rec.Code != http.StatusOK {
		t.Fatalf("single stats = %d", rec.Code)
	}
	if payload.Storage.Backend != "fs" || len(payload.Storage.Shards) != 0 {
		t.Fatalf("single storage section = %+v", payload.Storage)
	}
	if rec := do(t, srvSingle, "GET", "/v1/metrics", nil, nil); strings.Contains(rec.Body.String(), "provdiff_storage_shard_") {
		t.Fatal("single-backend metrics expose shard families")
	}
}
