package store

import (
	"os"
	"sync"
	"testing"
)

// The store tests run against whichever backend
// PROVSTORE_TEST_BACKEND selects (fs or memory; default fs), so CI
// exercises the identical suite across both implementations.
// "Reopening" a store means constructing a fresh *Store over the same
// persisted state keyed by dir — for the memory backend a
// process-local registry maps dirs to long-lived instances, since its
// state lives in the instance itself.

var memBackends = struct {
	mu sync.Mutex
	m  map[string]Backend
}{m: make(map[string]Backend)}

func testBackendKind() string {
	if k := os.Getenv("PROVSTORE_TEST_BACKEND"); k != "" {
		return k
	}
	return "fs"
}

// openTestBackend returns the backend under test for dir; calling it
// again with the same dir reopens the same persisted state.
func openTestBackend(t testing.TB, dir string) Backend {
	t.Helper()
	kind := testBackendKind()
	if kind == "memory" {
		memBackends.mu.Lock()
		defer memBackends.mu.Unlock()
		be, ok := memBackends.m[dir]
		if !ok {
			be = NewMemoryBackend()
			memBackends.m[dir] = be
		}
		return be
	}
	be, err := NewBackend(kind, dir)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// openTestStore opens (or reopens) a repository on dir under the
// backend kind being tested.
func openTestStore(t testing.TB, dir string) *Store {
	t.Helper()
	return OpenBackend(openTestBackend(t, dir))
}

func openStore(t *testing.T) *Store {
	t.Helper()
	return openTestStore(t, t.TempDir())
}

// reopenStore builds a fresh *Store (empty caches) over the same
// backend — the backend-agnostic stand-in for "restart the process".
func reopenStore(s *Store) *Store { return OpenBackend(s.Backend()) }

// upgradeAll runs the upgrade pass of Open and OpenRepository over
// every spec of s, for tests that build an older release's state over
// the backend under test.
func upgradeAll(s *Store) error {
	specs, err := s.ListSpecs()
	for i := 0; err == nil && i < len(specs); i++ {
		err = s.upgrade(specs[i])
	}
	return err
}

// reopenUpgraded is reopen followed by the upgrade pass.
func reopenUpgraded(t testing.TB, dir string) *Store {
	t.Helper()
	s := openTestStore(t, dir)
	if err := upgradeAll(s); err != nil {
		t.Fatal(err)
	}
	return s
}
