package store

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// RunData is one run of a bulk import: its name and raw XML document.
type RunData struct {
	Name string
	XML  []byte
}

// ErrDuplicateRun marks a batch that names the same run more than
// once; HTTP callers map it onto 409 Conflict.
var ErrDuplicateRun = errors.New("store: duplicate run name in batch")

// ParsedRun is one pre-parsed run of a batched commit. Run must be
// what wfxml.DecodeRun produced from the run's XML: the store keeps
// its frame as the run, and caches Run as its decoded form.
type ParsedRun struct {
	Name string
	Run  *wfrun.Run
}

// ImportStats summarizes a bulk import.
type ImportStats struct {
	Spec     string
	Imported []string // run names, in input order
	Nodes    int      // total run-graph nodes imported
	Edges    int      // total run-graph edges imported
	// Hashes holds the hex content hash of each imported run's codec
	// frame, aligned with Imported — the run's ledger identity.
	Hashes []string
}

// ImportRuns imports a batch of runs into a specification in one
// pass: every document is parsed and derived concurrently (workers
// goroutines; <= 0 means GOMAXPROCS), committed as frames in one
// segment append, and published to the decoded-run cache.
//
// Change notification is coalesced: the per-run OnRunChange hooks do
// NOT fire; instead every OnRunsBulkChange hook fires exactly once
// with the full name list, so a subscriber maintaining a per-spec
// cohort matrix performs one rebuild instead of len(runs) incremental
// updates.
//
// Validation is all-or-nothing per batch: names are checked and every
// document parsed before anything is written, so a malformed document
// rejects the whole batch without touching the repository.
func (s *Store) ImportRuns(specName string, runs []RunData, workers int) (ImportStats, error) {
	stats := ImportStats{Spec: specName}
	if err := validName(specName); err != nil {
		return stats, err
	}
	if len(runs) == 0 {
		return stats, nil
	}
	seen := make(map[string]bool, len(runs))
	for _, rd := range runs {
		if err := validName(rd.Name); err != nil {
			return stats, err
		}
		if seen[rd.Name] {
			return stats, fmt.Errorf("run %q appears twice in bulk import: %w", rd.Name, ErrDuplicateRun)
		}
		seen[rd.Name] = true
	}
	sp, err := s.LoadSpec(specName)
	if err != nil {
		return stats, err
	}

	// Phase 1: parse everything concurrently, nothing written yet.
	parsed := make([]*wfrun.Run, len(runs))
	errs := make([]error, len(runs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					return
				}
				r, err := wfxml.DecodeRun(bytes.NewReader(runs[i].XML), sp)
				if err != nil {
					errs[i] = fmt.Errorf("store: run %q: %w", runs[i].Name, err)
					continue
				}
				parsed[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}

	// Phase 2 is the shared batched commit.
	batch := make([]ParsedRun, len(runs))
	for i, rd := range runs {
		batch[i] = ParsedRun{Name: rd.Name, Run: parsed[i]}
	}
	return s.ImportParsed(specName, batch)
}

// ImportParsed is the group-commit half of the bulk import, shared
// with the server's ingest pipeline and live-run completion: runs that
// are already parsed are committed in ONE synced segment append and
// ONE synced ledger record, published to the decoded-run
// cache, and announced with ONE coalesced OnRunsBulkChange
// notification — the per-run OnRunChange hooks do not fire.
//
// Names are validated and checked for duplicates (ErrDuplicateRun) up
// front. The commit is all-or-nothing: on error no run of the batch
// is stored and nothing is announced.
func (s *Store) ImportParsed(specName string, runs []ParsedRun) (ImportStats, error) {
	stats, err := s.commitRuns(specName, runs)
	if err == nil && len(stats.Imported) > 0 {
		s.notifyBulkChange(specName, stats.Imported)
	}
	return stats, err
}

// commitRuns validates and commits a batch of parsed runs, without
// change notification.
func (s *Store) commitRuns(specName string, runs []ParsedRun) (ImportStats, error) {
	stats := ImportStats{Spec: specName}
	if err := validName(specName); err != nil {
		return stats, err
	}
	if len(runs) == 0 {
		return stats, nil
	}
	seen := make(map[string]bool, len(runs))
	items := make([]snapBatchItem, len(runs))
	for i, pr := range runs {
		if err := validName(pr.Name); err != nil {
			return stats, err
		}
		if seen[pr.Name] {
			return stats, fmt.Errorf("run %q appears twice in batch: %w", pr.Name, ErrDuplicateRun)
		}
		seen[pr.Name] = true
		if pr.Run == nil {
			return stats, fmt.Errorf("store: run %q has no parsed form", pr.Name)
		}
		items[i] = snapBatchItem{name: pr.Name, run: pr.Run}
	}
	if _, err := s.LoadSpec(specName); err != nil {
		return stats, err
	}
	hashes, err := s.writeRunSnapshotBatch(specName, items)
	if err != nil {
		return stats, fmt.Errorf("store: committing %d runs of %q: %w", len(runs), specName, err)
	}
	for _, pr := range runs {
		stats.Imported = append(stats.Imported, pr.Name)
		stats.Nodes += pr.Run.NumNodes()
		stats.Edges += pr.Run.NumEdges()
	}
	stats.Hashes = hashes
	return stats, nil
}

// ImportDir bulk-imports every *.xml file of a local directory as runs
// of a specification, named by base filename. The directory is
// EXTERNAL input (the provstore import-dir subcommand), so it is read
// with plain os calls regardless of the repository's backend.
func (s *Store) ImportDir(specName, dir string, workers int) (ImportStats, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ImportStats{Spec: specName}, fmt.Errorf("store: %w", err)
	}
	var runs []RunData
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") || e.Name() == "spec.xml" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return ImportStats{Spec: specName}, fmt.Errorf("store: %w", err)
		}
		runs = append(runs, RunData{Name: strings.TrimSuffix(e.Name(), ".xml"), XML: data})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Name < runs[j].Name })
	return s.ImportRuns(specName, runs, workers)
}

// ExportSpec streams a specification and all (or the named subset of)
// its runs as a tar archive: spec.xml at the root, runs under runs/.
// Each run is rendered from its stored frame with wfxml.EncodeRun, so
// the archive carries canonical XML rather than the bytes a client
// once imported; it round-trips through ImportTar / the runs:bulk
// endpoint to identical frames.
func (s *Store) ExportSpec(specName string, runNames []string, w io.Writer) error {
	if err := validName(specName); err != nil {
		return err
	}
	if _, err := s.LoadSpec(specName); err != nil {
		return err
	}
	if runNames == nil {
		var err error
		runNames, err = s.ListRuns(specName)
		if err != nil {
			return err
		}
	}
	tw := tar.NewWriter(w)
	addFile := func(name string, data []byte) error {
		hdr := &tar.Header{
			Name:    name,
			Mode:    0o644,
			Size:    int64(len(data)),
			ModTime: time.Unix(0, 0), // deterministic archives
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := tw.Write(data); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	}
	specXML, err := s.be.ReadFile(specXMLKey(specName))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := addFile("spec.xml", specXML); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, name := range runNames {
		r, err := s.LoadRun(specName, name)
		if err != nil {
			return err
		}
		buf.Reset()
		if err := wfxml.EncodeRun(&buf, r, name); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := addFile("runs/"+name+".xml", buf.Bytes()); err != nil {
			return err
		}
	}
	return tw.Close()
}

// ReadRunTar collects run documents from a tar stream: every regular
// *.xml entry except spec.xml becomes a run named by its base
// filename. Entry names are validated before they can touch the
// repository; maxRun bounds a single document and maxTotal the whole
// stream.
func ReadRunTar(r io.Reader, maxRun, maxTotal int64) ([]RunData, error) {
	tr := tar.NewReader(r)
	var runs []RunData
	var total int64
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("store: tar: %w", err)
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		base := path.Base(path.Clean(hdr.Name))
		if !strings.HasSuffix(base, ".xml") || base == "spec.xml" {
			continue
		}
		name := strings.TrimSuffix(base, ".xml")
		if err := ValidateName(name); err != nil {
			return nil, err
		}
		if hdr.Size > maxRun {
			return nil, fmt.Errorf("store: run %q is %d bytes (limit %d)", name, hdr.Size, maxRun)
		}
		total += hdr.Size
		if total > maxTotal {
			return nil, fmt.Errorf("store: bulk import exceeds %d bytes", maxTotal)
		}
		data, err := io.ReadAll(io.LimitReader(tr, maxRun+1))
		if err != nil {
			return nil, fmt.Errorf("store: tar: %w", err)
		}
		if int64(len(data)) > maxRun {
			return nil, fmt.Errorf("store: run %q exceeds %d bytes", name, maxRun)
		}
		runs = append(runs, RunData{Name: name, XML: data})
	}
	return runs, nil
}
