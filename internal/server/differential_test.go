package server

// Differential test for the group-commit pipeline: a set of runs
// ingested through the batched async path must leave the store
// byte-identical — snapshot segment, manifest layout — to the same
// runs imported sequentially as one-run store commits, and both
// servers must give the same analytic answers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/wfxml"
)

// encodeRunNamed is encodeRun with the run's own name in the document.
func encodeRunNamed(tb testing.TB, st *store.Store, seed int64, name string) []byte {
	tb.Helper()
	sp, err := st.LoadSpec("pa")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r, name); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// manifestShape mirrors the snapshot manifest's layout fields for
// comparison; the ledger batch of each entry legitimately differs
// (one pipeline batch against one batch per sequential import).
type manifestShape struct {
	Version int                      `json:"version"`
	Runs    map[string]manifestEntry `json:"runs"`
}

type manifestEntry struct {
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
	Codec  int    `json:"codec"`
	Hash   string `json:"hash"`
}

func readManifest(t *testing.T, dir string) manifestShape {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "pa", "snapshot", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifestShape
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPipelineIngestByteIdenticalToSequential(t *testing.T) {
	const k = 6
	dirP, dirD := t.TempDir(), t.TempDir()
	srvP, stP := seedServerAt(t, dirP, 0, Options{IngestBatch: k, IngestMaxWait: 100 * time.Millisecond})
	srvD, stD := seedServerAt(t, dirD, 0, Options{})

	bodies := make([][]byte, k)
	names := make([]string, k)
	for i := range bodies {
		names[i] = fmt.Sprintf("q%d", i) // single digit: sorted order == arrival order
		bodies[i] = encodeRunNamed(t, stP, int64(3000+i), names[i])
	}

	// Pipeline arm: async posts, FIFO from this one goroutine, so the
	// batcher coalesces them (up to all k in one commit) in known order.
	statusURLs := make([]string, k)
	for i, name := range names {
		var acc acceptedJSON
		rec := do(t, srvP, "POST", "/v1/specs/pa/runs/"+name+"?async=1", bodies[i], &acc)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("async post %s = %d %q", name, rec.Code, rec.Body.String())
		}
		statusURLs[i] = acc.StatusURL
	}
	for i, url := range statusURLs {
		if view := pollTicket(t, srvP, url); view.State != "committed" {
			t.Fatalf("ticket for %s resolved %q: %+v", names[i], view.State, view)
		}
	}

	// Sequential arm: the same bodies, parsed and committed one run per
	// store commit.
	sp, err := stD.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		r, err := wfxml.DecodeRun(bytes.NewReader(bodies[i]), sp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stD.ImportParsed("pa", []store.ParsedRun{{Name: name, Run: r}}); err != nil {
			t.Fatalf("sequential import %s: %v", name, err)
		}
	}

	segP, err := os.ReadFile(filepath.Join(dirP, "pa", "snapshot", "runs.seg"))
	if err != nil {
		t.Fatal(err)
	}
	segD, err := os.ReadFile(filepath.Join(dirD, "pa", "snapshot", "runs.seg"))
	if err != nil {
		t.Fatal(err)
	}
	// manifest.json is a checkpoint: bring both up to their ledgers.
	for _, st := range []*store.Store{stP, stD} {
		if _, err := st.Snapshot("pa"); err != nil {
			t.Fatal(err)
		}
	}
	mp, md := readManifest(t, dirP), readManifest(t, dirD)
	if len(mp.Runs) != k {
		t.Errorf("pipeline checkpoint lists %d runs, want %d", len(mp.Runs), k)
	}
	if !bytes.Equal(segP, segD) {
		t.Errorf("snapshot segments differ: pipeline %d bytes, sequential %d bytes", len(segP), len(segD))
		// Attribute the divergence to frames via the manifest layout.
		for _, name := range names {
			ep, ed := mp.Runs[name], md.Runs[name]
			if ep != ed {
				t.Errorf("  %s: manifest entries differ: %+v vs %+v", name, ep, ed)
				continue
			}
			fp := segP[ep.Offset : ep.Offset+ep.Length]
			fd := segD[ep.Offset : ep.Offset+ep.Length]
			if !bytes.Equal(fp, fd) {
				i := 0
				for i < len(fp) && fp[i] == fd[i] {
					i++
				}
				t.Errorf("  %s: frame differs at byte %d of %d (pipeline % x | sequential % x)",
					name, i, len(fp), fp[max(0, i-4):min(len(fp), i+8)], fd[max(0, i-4):min(len(fd), i+8)])
			}
		}
	}

	if !reflect.DeepEqual(mp, md) {
		t.Errorf("manifests differ:\npipeline:   %+v\nsequential: %+v", mp, md)
	}

	// Same analytic answers from both servers.
	for _, target := range []string{
		"/v1/specs/pa/runs",
		"/v1/specs/pa/diff/q0/q1",
		"/v1/specs/pa/diff/q2/q5",
		"/v1/specs/pa/cohort",
		"/v1/specs/pa/cluster?k=2&seed=9",
	} {
		rp := do(t, srvP, "GET", target, nil, nil)
		rd := do(t, srvD, "GET", target, nil, nil)
		if rp.Code != http.StatusOK || rd.Code != http.StatusOK {
			t.Errorf("%s: pipeline %d, sequential %d", target, rp.Code, rd.Code)
			continue
		}
		if !bytes.Equal(rp.Body.Bytes(), rd.Body.Bytes()) {
			t.Errorf("%s answers differ:\npipeline:   %q\nsequential: %q", target, truncate(rp.Body.String()), truncate(rd.Body.String()))
		}
	}
	srvP.Close()
	srvD.Close()
}

func truncate(s string) string {
	if len(s) > 300 {
		return s[:300] + "…"
	}
	return s
}
