package store

import (
	"bytes"
	"testing"
)

// TestMemoryAppendInPlace: an append to a large memory blob costs the
// appended bytes, not a copy of the blob, and reads back whole.
func TestMemoryAppendInPlace(t *testing.T) {
	be := NewMemoryBackend()
	base := bytes.Repeat([]byte{'a'}, 1<<20)
	if err := be.WriteFile("s/ledger.log", base); err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'b'}, 100)
	appends := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := be.Append("s/ledger.log", rec, true); err != nil {
			t.Fatal(err)
		}
		appends++
	})
	if allocs >= 0.5 {
		t.Fatalf("a 100-byte append onto a 1 MiB blob allocates %.2f times, want amortized 0", allocs)
	}
	got, err := be.ReadFile("s/ledger.log")
	if err != nil {
		t.Fatal(err)
	}
	want := append(base, bytes.Repeat(rec, appends)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("blob after %d appends: %d bytes, want %d", appends, len(got), len(want))
	}
}
