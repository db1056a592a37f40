package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// objectBackend is an object-store-shaped backend: blobs are
// content-addressed, write-once chunk objects under objects/, and one
// small JSON index maps logical keys onto chunk lists. It is the
// S3/MinIO access pattern — immutable objects plus an index, no
// in-place mutation, no directories — run against a local "bucket"
// directory so CI needs no external service.
//
// Layout of the bucket:
//
//	bucket.json                 key → [{hash,size}...] index (atomic rewrite)
//	objects/<hh>/<sha256-hex>   immutable chunk objects
//
// WriteFile stores one chunk and repoints the key (atomicity comes
// from the index rename, exactly like an object-store PUT); Append
// adds a chunk to the key's list, so append-heavy files (the segment,
// the ledger, live journals) never rewrite earlier bytes. Identical
// content dedupes onto one object. Chunks orphaned by overwrites or
// removals are left in place — they are cheap, content-addressed, and
// a future GC sweep can collect anything the index no longer
// references.
type objectBackend struct {
	dir string

	mu    sync.RWMutex
	index map[string]objectEntry
}

type objectEntry struct {
	Chunks   []objectChunk `json:"chunks"`
	ModNanos int64         `json:"mod_nanos"`
}

type objectChunk struct {
	Hash string `json:"hash"`
	Size int64  `json:"size"`
}

type objectIndex struct {
	Version int                    `json:"version"`
	Keys    map[string]objectEntry `json:"keys"`
}

const objectIndexVersion = 1

// NewObjectBackend opens (creating if needed) an object backend over
// the local bucket directory dir.
func NewObjectBackend(dir string) (Backend, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	b := &objectBackend{dir: dir, index: make(map[string]objectEntry)}
	data, err := os.ReadFile(b.indexPath())
	if err == nil {
		var idx objectIndex
		if err := json.Unmarshal(data, &idx); err != nil {
			return nil, fmt.Errorf("store: corrupt bucket index %s: %w", b.indexPath(), err)
		}
		if idx.Version != objectIndexVersion {
			return nil, fmt.Errorf("store: bucket index version %d, want %d", idx.Version, objectIndexVersion)
		}
		if idx.Keys != nil {
			b.index = idx.Keys
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}

func (b *objectBackend) Kind() string      { return "object" }
func (b *objectBackend) indexPath() string { return filepath.Join(b.dir, "bucket.json") }

func (b *objectBackend) chunkPath(hash string) string {
	return filepath.Join(b.dir, "objects", hash[:2], hash)
}

// putChunk stores data as a content-addressed object, returning its
// chunk descriptor. An object that already exists is reused — content
// addressing makes the write idempotent. With sync set the bytes are
// fsynced before the object becomes visible.
func (b *objectBackend) putChunk(data []byte, sync bool) (objectChunk, error) {
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	ch := objectChunk{Hash: hash, Size: int64(len(data))}
	path := b.chunkPath(hash)
	if _, err := os.Stat(path); err == nil {
		return ch, nil // dedup: immutable object already present
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return objectChunk{}, err
	}
	f, err := os.CreateTemp(filepath.Dir(path), hash+".*.tmp")
	if err != nil {
		return objectChunk{}, err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return objectChunk{}, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return objectChunk{}, err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return objectChunk{}, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return objectChunk{}, err
	}
	return ch, nil
}

// saveIndexLocked atomically rewrites bucket.json. Caller holds b.mu.
func (b *objectBackend) saveIndexLocked(sync bool) error {
	data, err := json.Marshal(objectIndex{Version: objectIndexVersion, Keys: b.index})
	if err != nil {
		return err
	}
	tmp := b.indexPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, b.indexPath()); err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		return syncDir(b.dir)
	}
	return nil
}

func (b *objectBackend) ReadFile(key string) ([]byte, error) {
	b.mu.RLock()
	e, ok := b.index[key]
	b.mu.RUnlock()
	if !ok {
		return nil, notExist("read", key)
	}
	var total int64
	for _, ch := range e.Chunks {
		total += ch.Size
	}
	out := make([]byte, 0, total)
	for _, ch := range e.Chunks {
		data, err := os.ReadFile(b.chunkPath(ch.Hash))
		if err != nil {
			return nil, fmt.Errorf("store: object %s chunk %s: %w", key, ch.Hash, err)
		}
		if int64(len(data)) != ch.Size {
			return nil, fmt.Errorf("store: object %s chunk %s is %d bytes, index says %d", key, ch.Hash, len(data), ch.Size)
		}
		out = append(out, data...)
	}
	return out, nil
}

// WriteFile is durable, like an object-store PUT: the chunk and the
// repointed index are both synced before it returns.
func (b *objectBackend) WriteFile(key string, data []byte) error {
	ch, err := b.putChunk(data, true)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.index[key] = objectEntry{Chunks: []objectChunk{ch}, ModNanos: time.Now().UnixNano()}
	return b.saveIndexLocked(true)
}

func (b *objectBackend) Append(key string, data []byte, sync bool) error {
	ch, err := b.putChunk(data, sync)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.index[key]
	e.Chunks = append(append([]objectChunk(nil), e.Chunks...), ch)
	e.ModNanos = time.Now().UnixNano()
	b.index[key] = e
	return b.saveIndexLocked(sync)
}

func (b *objectBackend) ReadAt(key string, p []byte, off int64) error {
	b.mu.RLock()
	e, ok := b.index[key]
	b.mu.RUnlock()
	if !ok {
		return notExist("readat", key)
	}
	if off < 0 {
		return fmt.Errorf("store: object %s: negative offset %d", key, off)
	}
	filled := 0
	pos := int64(0)
	for _, ch := range e.Chunks {
		if filled == len(p) {
			break
		}
		end := pos + ch.Size
		if end <= off {
			pos = end
			continue
		}
		data, err := os.ReadFile(b.chunkPath(ch.Hash))
		if err != nil {
			return fmt.Errorf("store: object %s chunk %s: %w", key, ch.Hash, err)
		}
		start := int64(0)
		if off > pos {
			start = off - pos
		}
		filled += copy(p[filled:], data[start:])
		pos = end
	}
	if filled < len(p) {
		return fmt.Errorf("store: object %s: read %d of %d bytes at offset %d", key, filled, len(p), off)
	}
	return nil
}

func (b *objectBackend) Stat(key string) (BlobInfo, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.index[key]
	if !ok {
		return BlobInfo{}, notExist("stat", key)
	}
	var total int64
	for _, ch := range e.Chunks {
		total += ch.Size
	}
	return BlobInfo{Size: total, ModTime: time.Unix(0, e.ModNanos)}, nil
}

func (b *objectBackend) List(dir string) ([]Entry, error) {
	prefix := ""
	if dir != "" {
		prefix = strings.TrimSuffix(dir, "/") + "/"
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	seen := make(map[string]bool)
	var out []Entry
	for key := range b.index {
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

func (b *objectBackend) Remove(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.index[key]; !ok {
		return notExist("remove", key)
	}
	delete(b.index, key)
	return b.saveIndexLocked(false)
}

func (b *objectBackend) Close() error { return nil }
