package store

import (
	"sort"
	"strings"
	"sync"
)

// memoryBackend keeps every blob in a mutex-guarded map — the fastest
// test backend and the natural home of ephemeral tenants. Directories
// are implicit in the keys. "Reopening" a memory backend is handing
// the same instance to a fresh Store; Close keeps the data for exactly
// that reason.
type memoryBackend struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemoryBackend returns an empty in-memory backend.
func NewMemoryBackend() Backend {
	return &memoryBackend{blobs: make(map[string][]byte)}
}

func (b *memoryBackend) Kind() string { return "memory" }

func (b *memoryBackend) ReadFile(key string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	blob, ok := b.blobs[key]
	if !ok {
		return nil, notExist("read", key)
	}
	out := make([]byte, len(blob))
	copy(out, blob)
	return out, nil
}

func (b *memoryBackend) WriteFile(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	b.blobs[key] = cp
	b.mu.Unlock()
	return nil
}

func (b *memoryBackend) Append(key string, data []byte, sync bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// In place: ReadFile and ReadAt copy out under the lock, so no
	// caller holds a slice of a blob's array.
	b.blobs[key] = append(b.blobs[key], data...)
	return nil
}

func (b *memoryBackend) ReadAt(key string, p []byte, off int64) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	blob, ok := b.blobs[key]
	if !ok {
		return notExist("readat", key)
	}
	if off < 0 || off+int64(len(p)) > int64(len(blob)) {
		return notExist("readat", key) // past EOF
	}
	copy(p, blob[off:])
	return nil
}

func (b *memoryBackend) Stat(key string) (BlobInfo, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	blob, ok := b.blobs[key]
	if !ok {
		return BlobInfo{}, notExist("stat", key)
	}
	return BlobInfo{Size: int64(len(blob))}, nil
}

func (b *memoryBackend) List(dir string) ([]Entry, error) {
	prefix := ""
	if dir != "" {
		prefix = strings.TrimSuffix(dir, "/") + "/"
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	seen := make(map[string]bool)
	var out []Entry
	for key := range b.blobs {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		rest := key[len(prefix):]
		name, more := rest, false
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			name, more = rest[:i], true
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, Entry{Name: name, Dir: more})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (b *memoryBackend) Remove(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.blobs[key]; !ok {
		return notExist("remove", key)
	}
	delete(b.blobs, key)
	return nil
}

func (b *memoryBackend) Close() error { return nil }
