package main

// The service under test, started exactly as provserved's warm start
// does it: open the repository, PreloadAll, Snapshot per spec,
// server.New with provserved's default Options, Warm, then a loopback
// listener.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// service is one running provserved-equivalent.
type service struct {
	st   *store.Store
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// setupTimes splits one warm start. Total runs from opening the
// repository until the listener accepts.
type setupTimes struct {
	Total, Preload, Snapshot, Warm time.Duration
}

// defaultOptions are provserved's Options when run without flags.
func defaultOptions() server.Options {
	return server.Options{CacheSize: server.DefaultCacheSize}
}

// startService performs the warm start over be and serves on a fresh
// loopback port. wrap, when set, wraps the handler (tracing only).
func startService(be store.Backend, opts server.Options, wrap func(http.Handler) http.Handler) (*service, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	st := store.OpenBackend(be)
	stats, err := st.PreloadAll()
	if err != nil {
		st.Close()
		return nil, t, fmt.Errorf("preload: %w", err)
	}
	t1 := time.Now()
	for _, ps := range stats {
		if _, err := st.Snapshot(ps.Spec); err != nil {
			st.Close()
			return nil, t, fmt.Errorf("snapshot %s: %w", ps.Spec, err)
		}
	}
	t2 := time.Now()
	srv := server.New(st, opts)
	t3 := time.Now()
	if err := srv.Warm(); err != nil {
		srv.Close()
		st.Close()
		return nil, t, fmt.Errorf("warm: %w", err)
	}
	t4 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, t, err
	}
	t5 := time.Now()
	t = setupTimes{Total: t5.Sub(t0), Preload: t1.Sub(t0), Snapshot: t2.Sub(t1), Warm: t4.Sub(t3)}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	s := &service{
		st:   st,
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, t, nil
}

// stop drains connections, waits for Serve to return, drains the
// ingest pipeline and closes the store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv.Close()
	return errors.Join(err, s.st.Close())
}

// copyBackend copies every blob of src into dst: how a memory-backed
// run receives the fixture the child wrote to disk.
func copyBackend(dst, src store.Backend) error {
	return walkBackend(src, "", func(key string) error {
		data, err := src.ReadFile(key)
		if err != nil {
			return err
		}
		return dst.WriteFile(key, data)
	})
}

// backendBytes sums the sizes of every blob in be.
func backendBytes(be store.Backend) (int64, error) {
	var total int64
	err := walkBackend(be, "", func(key string) error {
		info, err := be.Stat(key)
		total += info.Size
		return err
	})
	return total, err
}

// walkBackend calls fn on every blob key under dir.
func walkBackend(be store.Backend, dir string, fn func(key string) error) error {
	entries, err := be.List(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		key := path.Join(dir, e.Name)
		if e.Dir {
			err = walkBackend(be, key, fn)
		} else {
			err = fn(key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
