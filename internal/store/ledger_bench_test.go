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
// fsynced ledger batch record, one manifest save. Two content
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
