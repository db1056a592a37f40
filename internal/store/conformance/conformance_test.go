package conformance_test

import (
	"testing"

	"repro/internal/store"
	"repro/internal/store/conformance"
)

func TestFSBackend(t *testing.T) {
	dir := t.TempDir()
	conformance.RunConformance(t, func() store.Backend {
		be, err := store.NewFSBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		return be
	})
}

func TestMemoryBackend(t *testing.T) {
	be := store.NewMemoryBackend()
	conformance.RunConformance(t, func() store.Backend { return be })
}
