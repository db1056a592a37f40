package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// fsBackend is the classic directory-tree backend: every key maps to
// the file of the same relative path under root, byte-compatible with
// repositories written before the backend seam existed.
type fsBackend struct {
	root string
}

// NewFSBackend opens (creating if needed) a filesystem backend rooted
// at dir.
func NewFSBackend(dir string) (Backend, error) {
	if err := mkdirDurable(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &fsBackend{root: dir}, nil
}

func (b *fsBackend) Kind() string { return "fs" }

func (b *fsBackend) path(key string) string {
	return filepath.Join(b.root, filepath.FromSlash(key))
}

func (b *fsBackend) ReadFile(key string) ([]byte, error) {
	return os.ReadFile(b.path(key))
}

// WriteFile is atomic and durable: the data goes to a uniquely named
// temp file in the destination directory, which is fsynced, renamed
// over the key, and followed by an fsync of the directory so the
// rename itself survives a power cut (as do any directories it had to
// create, see mkdirDurable). Readers racing the write see old or new
// bytes, never a prefix, and concurrent writers of one key never share
// a temp file.
func (b *fsBackend) WriteFile(key string, data []byte) error {
	path := b.path(key)
	dir := filepath.Dir(path)
	if err := mkdirDurable(dir); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries renamed or created in
// it durable. It is a variable so tests can record which directories
// are synced.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// mkdirDurable is os.MkdirAll followed by an fsync of the parent of
// every directory it creates, so a new spec's directory entry survives
// a power cut along with the files written into it. An existing dir
// costs one stat.
func mkdirDurable(dir string) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := mkdirDurable(parent); err != nil {
			return err
		}
	}
	// A concurrent creator may win the race; syncing the parent again
	// still makes the entry durable before this caller goes on.
	if err := os.Mkdir(dir, 0o755); err != nil && !os.IsExist(err) {
		return err
	}
	return syncDir(parent)
}

// Append with sync set is durable when it returns: the file is fsynced
// and, when this call created it, so is its directory, since a new
// file's entry is not covered by the file's own fsync.
func (b *fsBackend) Append(key string, data []byte, sync bool) error {
	path := b.path(key)
	dir := filepath.Dir(path)
	if err := mkdirDurable(dir); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	created := os.IsNotExist(err)
	if created {
		f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	err = f.Close()
	if err == nil && sync && created {
		err = syncDir(dir)
	}
	return err
}

func (b *fsBackend) ReadAt(key string, p []byte, off int64) error {
	f, err := os.Open(b.path(key))
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.ReadAt(p, off)
	return err
}

func (b *fsBackend) Stat(key string) (BlobInfo, error) {
	fi, err := os.Stat(b.path(key))
	if err != nil {
		return BlobInfo{}, err
	}
	return BlobInfo{Size: fi.Size()}, nil
}

func (b *fsBackend) List(dir string) ([]Entry, error) {
	entries, err := os.ReadDir(b.path(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			continue // in-flight atomic write, not a blob
		}
		out = append(out, Entry{Name: e.Name(), Dir: e.IsDir()})
	}
	return out, nil
}

func (b *fsBackend) Remove(key string) error {
	return os.Remove(b.path(key))
}

func (b *fsBackend) Close() error { return nil }
