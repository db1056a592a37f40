package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/wfxml"
)

// BenchmarkIngestWithLedger measures the durable group-commit write
// path with ledger attestation end to end: each iteration commits a
// batch of 16 pre-parsed runs through ImportParsed — XML write,
// frame encode + content hash, one fsynced segment append, one
// fsynced ledger batch record. Two content
// variants alternate under the same 16 run names so no iteration is
// served by the content-hash dedup path: every batch writes and
// attests 16 fresh frames, and the steady-state churn (dead bytes,
// occasional compaction) is part of the measured cost.
func BenchmarkIngestWithLedger(b *testing.B) {
	dir := seedDir(b, 0)
	s := reopen(b, dir)
	sp, err := s.LoadSpec("pa")
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 16
	variants := make([][]ParsedRun, 2)
	for v := range variants {
		rng := rand.New(rand.NewSource(int64(100 + v)))
		batch := make([]ParsedRun, batchSize)
		for i := range batch {
			r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("w%d", i)
			var buf bytes.Buffer
			if err := wfxml.EncodeRun(&buf, r, name); err != nil {
				b.Fatal(err)
			}
			parsed, err := wfxml.DecodeRun(&buf, sp)
			if err != nil {
				b.Fatal(err)
			}
			batch[i] = ParsedRun{Name: name, Run: parsed}
		}
		variants[v] = batch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ImportParsed("pa", variants[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// historyStore returns an fs repository whose spec "pa" holds history
// runs h00000.. plus extra runs d0000000.., checkpointed as a server
// boot leaves it, and the two run bodies the runs alternate between.
func historyStore(b *testing.B, history, extra int) (*Store, [2]ParsedRun) {
	be, err := NewFSBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s := OpenBackend(be)
	pa, err := gen.Catalog("PA")
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SaveSpec("pa", pa); err != nil {
		b.Fatal(err)
	}
	sp, err := s.LoadSpec("pa")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var runs [2]ParsedRun
	for i := range runs {
		if runs[i].Run, err = gen.RandomRun(sp, gen.DefaultRunParams(), rng); err != nil {
			b.Fatal(err)
		}
	}
	name := func(i int) string {
		if i < history {
			return fmt.Sprintf("h%05d", i)
		}
		return fmt.Sprintf("d%07d", i-history)
	}
	const batchSize = 250
	for lo := 0; lo < history+extra; lo += batchSize {
		batch := make([]ParsedRun, 0, batchSize)
		for i := lo; i < min(lo+batchSize, history+extra); i++ {
			batch = append(batch, ParsedRun{Name: name(i), Run: runs[i%2].Run})
		}
		if _, err := s.ImportParsed("pa", batch); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Snapshot("pa"); err != nil {
		b.Fatal(err)
	}
	return s, runs
}

// BenchmarkImportAtHistory measures one-run sync commits on an fs
// repository that already holds 500 or 2000 runs, checkpointed as a
// server boot leaves it. Each iteration commits a fresh run name, so
// every commit appends a frame and a ledger record; a commit whose cost
// grows with the stored history shows as /2000 slower than /500.
func BenchmarkImportAtHistory(b *testing.B) {
	for _, history := range []int{500, 2000} {
		b.Run(fmt.Sprint(history), func(b *testing.B) {
			s, runs := historyStore(b, history, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run := ParsedRun{Name: fmt.Sprintf("n%07d", i), Run: runs[i%2].Run}
				if _, err := s.ImportParsed("pa", []ParsedRun{run}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeleteAtHistory measures DeleteRun on the same repository
// as BenchmarkImportAtHistory, grown by one extra run per iteration for
// the iterations to delete. Each delete is one synced ledger record; a
// delete whose cost grows with the stored history shows as /2000
// slower than /500.
func BenchmarkDeleteAtHistory(b *testing.B) {
	for _, history := range []int{500, 2000} {
		b.Run(fmt.Sprint(history), func(b *testing.B) {
			s, _ := historyStore(b, history, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.DeleteRun("pa", fmt.Sprintf("d%07d", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
