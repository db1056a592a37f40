package store

import (
	"errors"
	"fmt"
	"io/fs"
	"time"
)

// Backend is the store's entire persistence surface, abstracted to a
// small blob interface so the repository can live on a local directory
// tree, in memory, or in an object store. Keys are slash-separated
// logical paths mirroring the on-disk layout:
//
//	<spec>/spec.xml                     authoritative specification XML
//	<spec>/snapshot/manifest.json       run index: name → frame
//	<spec>/snapshot/runs.seg            append-only run frames
//	<spec>/snapshot/spec.bin            binary specification frame
//	<spec>/snapshot/ledger.log          Merkle ledger (JSON lines)
//	<spec>/snapshot/lineage.bin         parent→child mapping frame
//	<spec>/lineage.json                 lineage link
//	<spec>/live/<run>.events            live-run event journal
//
// Repositories written before runs were stored only as frames also
// hold <spec>/runs/<run>.xml; the store migrates and removes them.
//
// Contract, shared by every implementation and enforced by the
// conformance suite (internal/store/conformance):
//
//   - WriteFile is atomic: readers observe either the old bytes or the
//     new bytes, never a prefix, also with concurrent writers of the
//     same key. Parent "directories" are implicit.
//   - Durability, for backends that persist at all: WriteFile is
//     durable when it returns (the checkpoint is the only record of
//     deletes, so a torn or lost one would resurrect deleted runs).
//     Append is durable when it returns only with sync set (the
//     group-commit fsync point); without it a crash may drop a suffix
//     of the appended bytes. Remove is not synced: after a crash a
//     removed key may reappear.
//   - Append appends exactly the given bytes. Appending to a missing
//     key creates it.
//   - A missing key surfaces as an error satisfying
//     errors.Is(err, fs.ErrNotExist) — and os.IsNotExist — from
//     ReadFile, ReadAt, Stat and Remove.
//   - List of a missing directory returns (nil, nil).
//
// Implementations must be safe for concurrent use; the store
// serializes writers per spec but readers run concurrently.
type Backend interface {
	// Kind names the implementation ("fs", "memory", "object",
	// "sharded") for stats and diagnostics.
	Kind() string
	ReadFile(key string) ([]byte, error)
	WriteFile(key string, data []byte) error
	Append(key string, data []byte, sync bool) error
	// ReadAt fills p from the blob starting at offset off; short blobs
	// return an error.
	ReadAt(key string, p []byte, off int64) error
	Stat(key string) (BlobInfo, error)
	List(dir string) ([]Entry, error)
	Remove(key string) error
	Close() error
}

// Entry is one name inside a backend "directory".
type Entry struct {
	Name string
	Dir  bool
}

// BlobInfo describes a stored blob.
type BlobInfo struct {
	Size    int64
	ModTime time.Time
}

// notExist builds the canonical missing-key error: a *fs.PathError
// wrapping fs.ErrNotExist, so errors.Is(err, fs.ErrNotExist) and
// os.IsNotExist both hold — the store and the HTTP error mapper rely
// on exactly that.
func notExist(op, key string) error {
	return &fs.PathError{Op: op, Path: key, Err: fs.ErrNotExist}
}

// isNotExist reports whether a backend error means "no such key" —
// the backend-agnostic twin of os.IsNotExist.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// NewBackend constructs a backend by kind name — the -backend flag of
// provserved and provstore, and the PROVSTORE_TEST_BACKEND selector of
// the test helpers. dir is the storage root for the fs and object
// kinds and is ignored for memory.
func NewBackend(kind, dir string) (Backend, error) {
	switch kind {
	case "", "fs":
		return NewFSBackend(dir)
	case "memory":
		return NewMemoryBackend(), nil
	case "object":
		return NewObjectBackend(dir)
	default:
		return nil, fmt.Errorf("store: unknown backend kind %q (want fs, memory or object)", kind)
	}
}
