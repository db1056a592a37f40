package provdiff

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/gen"
	"repro/internal/metricindex"
	"repro/internal/params"
	"repro/internal/sptree"
	"repro/internal/store"
	"repro/internal/view"
	"repro/internal/wfrun"
)

// Multi-run analysis (the paper's motivating workflow: compare many
// executions of an experiment).
type (
	// DistanceMatrixResult is a labelled pairwise distance matrix over
	// a run cohort, with UPGMA clustering; its D field is the matrix
	// the cohort analytics below take.
	DistanceMatrixResult = analysis.Matrix
	// Dendrogram is a UPGMA hierarchical clustering tree.
	Dendrogram = analysis.Dendrogram
)

// DistanceMatrix computes all pairwise edit distances of a cohort.
func DistanceMatrix(runs []*Run, names []string, m CostModel) (*DistanceMatrixResult, error) {
	return analysis.DistanceMatrix(runs, names, m)
}

// Cohort analytics over a distance matrix (internal/cluster): which
// execution is most typical, which behave alike, which are anomalous,
// which resemble a given run. They take a Distances, checked once when
// it is built (DistanceMatrix's D, or NewDistances), and never check
// it again.
type (
	// Distances is a validated, immutable symmetric distance matrix.
	Distances = cluster.Matrix
	// Clustering is a k-medoids (PAM) partition of a cohort.
	Clustering = cluster.Clustering
	// OutlierScore ranks one run by its knn-distance outlier score.
	OutlierScore = cluster.OutlierScore
	// Neighbor is one nearest-neighbor answer entry.
	Neighbor = cluster.Neighbor
)

// NewDistances checks a square matrix (zero diagonal, symmetric,
// entries neither negative nor NaN) and copies it into a Distances.
func NewDistances(rows [][]float64) (*Distances, error) { return cluster.NewMatrix(rows) }

// Medoid returns the cohort member with the least total distance to
// the others, ties toward the lower index.
func Medoid(d *Distances) int { return cluster.Medoid(d) }

// KMedoids partitions a cohort into k clusters by PAM over its
// distance matrix; deterministic for a fixed seed.
func KMedoids(d *Distances, k int, seed int64) (*Clustering, error) {
	return cluster.KMedoids(d, k, seed)
}

// Outliers scores every cohort member by mean distance to its k
// nearest neighbors, most anomalous first: the first entry is the
// cohort's outlier.
func Outliers(d *Distances, k int) ([]OutlierScore, error) { return cluster.Outliers(d, k) }

// NearestNeighbors returns the k cohort members closest to item i, in
// one O(n) scan of its row.
func NearestNeighbors(d *Distances, i, k int) ([]Neighbor, error) {
	return cluster.Nearest(d, i, k)
}

// Metric-index cohort analytics (internal/metricindex +
// internal/cluster): sub-quadratic nearest-neighbor, outlier and
// clustering queries over large cohorts. The index keys runs by the
// verified edit-distance metric and prunes exact DP diffs with two
// lower bounds — landmark triangle-inequality gaps and a
// cost-model-scaled status-histogram L1 gap — so queries touch only
// the pairs the bounds cannot rule out, with answers byte-identical
// to the exhaustive ones for nearest/outliers.
type (
	// MetricIndex is an incrementally maintained vantage-point index
	// over a run cohort.
	MetricIndex = metricindex.Index
	// MetricIndexOptions tunes the landmark count.
	MetricIndexOptions = metricindex.Options
	// MetricCohort is an immutable snapshot of a MetricIndex, the
	// query substrate for the Indexed* analytics.
	MetricCohort = metricindex.Cohort
	// SampleOptions tunes SampledKMedoids (sample size, restarts).
	SampleOptions = cluster.SampleOptions
	// HybridCohort is a cohort maintained incrementally: adding a run
	// differences only the new row, with per-worker engines (and their
	// W_TG memos) reused across imports. It keeps a dense distance
	// matrix below a size threshold and a metric index above it;
	// IndexThreshold: -1 keeps it dense at any size.
	HybridCohort = analysis.HybridCohort
	// HybridCohortOptions tunes the representation switch.
	HybridCohortOptions = analysis.HybridOptions
)

// NewMetricIndex returns an empty metric index for the given cost
// model.
func NewMetricIndex(m CostModel, opts MetricIndexOptions) *MetricIndex {
	return metricindex.New(m, opts)
}

// NewHybridCohort returns an empty hybrid cohort for the given cost
// model; its differencing fans out over one worker per core.
func NewHybridCohort(m CostModel, opts HybridCohortOptions) *HybridCohort {
	return analysis.NewHybridCohort(m, opts)
}

// KMedoidsContext is KMedoids with cooperative cancellation: the SWAP
// loop polls ctx between medoid rows.
func KMedoidsContext(ctx context.Context, d *Distances, k int, seed int64) (*Clustering, error) {
	return cluster.KMedoidsContext(ctx, d, k, seed)
}

// IndexedNearestNeighbors returns the k cohort members closest to
// item i, byte-identical to NearestNeighbors over the full matrix but
// diffing only pairs the index bounds cannot prune.
func IndexedNearestNeighbors(co *MetricCohort, i, k int) ([]Neighbor, error) {
	return cluster.IndexedNearest(co, i, k)
}

// IndexedOutliers scores every cohort member by mean distance to its
// k nearest neighbors without materializing the distance matrix;
// scores and order match Outliers byte-identically (MeanAll is 0).
func IndexedOutliers(co *MetricCohort, k int) ([]OutlierScore, error) {
	return cluster.IndexedOutliers(co, k)
}

// SampledKMedoids clusters a large cohort by PAM over a deterministic
// sample, then assigns the full cohort to the chosen medoids using
// the index bounds; deterministic for a fixed seed.
func SampledKMedoids(ctx context.Context, co *MetricCohort, k int, seed int64, opts SampleOptions) (*Clustering, error) {
	return cluster.SampledKMedoids(ctx, co, k, seed, opts)
}

// HistogramLowerBound returns the status-histogram lower bound on the
// edit distance of two runs of one specification — 0 when the cost
// model admits no label-free rate (e.g. Func models).
func HistogramLowerBound(m CostModel, r1, r2 *Run) (float64, error) {
	return metricindex.HistogramBound(m, r1, r2)
}

// Data and parameter differencing (Section I's data dimension).
type (
	// Annotations attach parameter settings to module instances and
	// data identifiers to edges of a run.
	Annotations = params.Annotations
	// DataReport highlights parameter/data differences over the
	// matched provenance.
	DataReport = params.Report
)

// NewAnnotations returns an empty annotation set.
func NewAnnotations() *Annotations { return params.NewAnnotations() }

// CompactScript folds delete/insert pairs over the same terminals in
// an edit script into detected path replacements (Section III-C.1's
// post-processing).
func CompactScript(s *Script) []view.CompactOp { return view.CompactScript(s) }

// DataDiff highlights parameter and data differences on the nodes and
// edges aligned by a computed mapping.
func DataDiff(res *Result, a1, a2 *Annotations) *DataReport { return params.DataDiff(res, a1, a2) }

// DiffWithData computes a diff in which data is a factor in the
// matching: pairing two edges whose data identifiers disagree adds
// weight to the mapping objective, steering the matching toward copies
// that carry the same data. The returned Result's Distance is the
// penalized objective.
func DiffWithData(r1, r2 *Run, m CostModel, a1, a2 *Annotations, weight float64) (*Result, error) {
	return core.Diff(r1, r2, m, core.WithLeafPenalty(params.LeafPenalty(a1, a2, weight)))
}

// RandomDecider adapts RunParams into a Decider for custom execution
// loops.
func RandomDecider(p RunParams, rng *rand.Rand) Decider {
	return gen.NewDecider(p, rng)
}

// TreeNode re-exports the annotated SP-tree node type for advanced
// callers (custom deciders inspect specification nodes).
type TreeNode = sptree.Node

// Tree node types.
const (
	NodeQ = sptree.Q
	NodeS = sptree.S
	NodeP = sptree.P
	NodeF = sptree.F
	NodeL = sptree.L
)

// Provenance repository (the prototype's store/import/export layer).

// Store is an on-disk repository of specifications and runs. Beyond
// save/load/diff it carries warm starts (Preload, PreloadAll,
// Snapshot — runs are stored as binary frames, so cold starts decode
// them instead of re-parsing run XML) and streaming bulk I/O
// (ImportRuns, ImportDir, ExportSpec), each batch one step of the
// spec's run-set version (RunsVersion).
type Store = store.Store

// OpenStore opens (creating if needed) a provenance repository.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

type (
	// RunData is one run of a bulk import: name + raw XML document.
	RunData = store.RunData
	// ImportStats summarizes a bulk import.
	ImportStats = store.ImportStats
	// SnapshotStats reports what a Store.Snapshot pass found.
	SnapshotStats = store.SnapshotStats
	// PreloadStats reports what a Store.Preload loaded.
	PreloadStats = store.PreloadStats
)

// ReadRunTar collects bulk-import run documents from a tar stream
// (the format ExportSpec writes and the runs:bulk endpoint accepts),
// with per-run and total size limits.
func ReadRunTar(r io.Reader, maxRun, maxTotal int64) ([]RunData, error) {
	return store.ReadRunTar(r, maxRun, maxTotal)
}

// Tamper-evident provenance ledger (internal/ledger + the store's
// snapshot layer): every group-committed batch of runs, and every
// delete, becomes one Merkle tree over its runs' names and frame
// content hashes and its tombstones, chained onto the spec's previous
// ledger head. Store.RunProof produces the
// inclusion proof of a run's current frame, Store.LedgerHeads the
// per-spec heads plus the repository root, and Store.VerifyLedger the
// full re-hash of live frames against the attested history.
type (
	// RunProof is a self-contained Merkle inclusion proof: leaf hash,
	// L/R sibling path, batch root, and the chain to the ledger head.
	RunProof = store.RunProof
	// SpecLedger summarizes one spec's ledger (head hash, batch count).
	SpecLedger = store.SpecLedger
	// LedgerVerifyReport is the outcome of a Store.VerifyLedger pass.
	LedgerVerifyReport = store.VerifyReport
	// LedgerVerifyIssue is one divergence a verify pass found.
	LedgerVerifyIssue = store.VerifyIssue
)

// VerifyRunProof replays a RunProof client-side — leaf up the sibling
// path to the batch root, then along the chain — returning the ledger
// head it implies. Compare it against the spec's published head.
func VerifyRunProof(p *RunProof) (string, error) { return store.VerifyProof(p) }

// FrameContentHash is the canonical SHA-256 content address of an
// encoded codec frame (run, spec or spec-mapping) — the identity the
// ledger attests.
func FrameContentHash(frame []byte) [32]byte { return codec.ContentHash(frame) }

// Workflow evolution (internal/evolve): specs change between versions
// — modules renamed, inserted, deleted; series edges split; parallel
// branches duplicated — and runs collected under different versions
// must still be comparable. The spec-evolution subsystem computes an
// edit mapping between two specification versions and projects runs
// through it so the run-diff engine, cohort matrices and clustering
// work across versions. The Store integrates lineage natively:
// PutSpecVersion registers a version (recording its parent link),
// Lineage walks the version chain, SpecMapping composes per-step
// mappings computed from the stored specifications, and CrossDiff
// compares stored runs across versions.
type (
	// SpecMapping aligns the surviving nodes of one specification
	// version with their counterparts in another.
	SpecMapping = evolve.SpecMapping
	// EvolveCosts prices spec-level edits (module rename,
	// insert/delete, series/parallel restructure).
	EvolveCosts = evolve.Costs
	// SpecMappingStats summarizes a mapping (mapped, renamed,
	// inserted, deleted modules).
	SpecMappingStats = evolve.MappingStats
	// CrossResult is a cross-version run comparison: projection +
	// run-diff distance with the spec-forced change priced apart.
	CrossResult = evolve.CrossResult
	// RunProjection prices what a mapping could not carry across.
	RunProjection = evolve.Projection
	// SpecMutation is one applied spec-evolution step (see MutateSpec).
	SpecMutation = gen.Mutation
)

// DefaultEvolveCosts is the spec-edit cost model the store and service
// use.
func DefaultEvolveCosts() EvolveCosts { return evolve.DefaultCosts() }

// SpecEvolve computes the minimum-cost edit mapping between two
// specification versions.
func SpecEvolve(a, b *Spec, c EvolveCosts) (*SpecMapping, error) {
	return evolve.SpecDiff(a, b, c)
}

// IdentitySpecMapping is the total self-mapping of a specification,
// under which CrossDiff degenerates to the plain run diff.
func IdentitySpecMapping(sp *Spec) *SpecMapping { return evolve.Identity(sp) }

// ComposeSpecMappings chains mappings A→B and B→C into A→C.
func ComposeSpecMappings(m1, m2 *SpecMapping) (*SpecMapping, error) {
	return evolve.Compose(m1, m2)
}

// ProjectRun pushes a run of the mapping's source version into the
// target version's node space, producing a valid run of the target;
// the Projection prices the regions the mapping could not carry.
func ProjectRun(m *SpecMapping, r *Run, runCost CostModel) (*Run, *RunProjection, error) {
	return evolve.ProjectRun(m, r, runCost)
}

// CrossDiff compares a run of one specification version with a run of
// another under a spec mapping: projection plus ordinary run diff,
// with spec-forced change (dropped/inserted regions) priced apart
// from data-driven change.
func CrossDiff(m *SpecMapping, r1, r2 *Run, runCost CostModel) (*CrossResult, error) {
	return evolve.CrossDiff(m, r1, r2, runCost)
}

// MutateSpec applies n random spec-evolution mutations (subdivide a
// series edge, add a parallel module, duplicate a parallel branch) —
// the workload generator for evolution scenarios. The last element
// carries the final specification.
func MutateSpec(sp *Spec, n int, rng *rand.Rand) ([]*SpecMutation, error) {
	return gen.Mutate(sp, n, rng)
}

// Live (still-executing) runs: internal/wfrun's event collection plus
// the store's event-log persistence. A LiveRun validates node-status
// events one at a time; Complete derives the run once, through the
// same Derive call an XML import makes, so the result is byte-stable
// under XML round trips. The Store counterparts
// (AppendLiveEvents, LiveStatusOf, ListLiveRuns, CompleteLiveRun)
// persist the event stream and promote finished runs through the
// group-commit import path.
type (
	// LiveEvent is one node-status event: a run edge appearing, named
	// by endpoint labels with optional explicit specification refs.
	LiveEvent = wfrun.Event
	// LiveRun collects a run from a stream of events.
	LiveRun = wfrun.Live
	// LiveRunStatus snapshots a store-managed in-flight run.
	LiveRunStatus = store.LiveStatus
)

// NewLiveRun starts collecting a run of sp.
func NewLiveRun(sp *Spec) *LiveRun { return wfrun.NewLive(sp) }

// RunEvents replays a finished run as the event stream that would
// rebuild it — the bridge from stored runs to live-ingest testing and
// load generation.
func RunEvents(r *Run) []LiveEvent { return wfrun.Events(r) }

// Pluggable storage backends (internal/store's Backend seam): the
// repository's whole persistence surface is a small blob interface, so
// the same store logic — snapshots, ledger, live journals, bulk I/O —
// runs over a local directory tree or an in-memory map. Both
// implementations are held to one contract by the conformance suite in
// internal/store/conformance.
type (
	// StorageBackend is the store's persistence surface: atomic
	// WriteFile, durable Append, not-exist errors satisfying
	// errors.Is(err, fs.ErrNotExist), sorted listings.
	StorageBackend = store.Backend
	// StorageEntry is one name in a backend "directory" listing.
	StorageEntry = store.Entry
	// StorageBlobInfo describes a stored blob (its size).
	StorageBlobInfo = store.BlobInfo
)

// NewFSBackend stores blobs as files under dir — the classic layout,
// byte-compatible with repositories created by earlier releases.
func NewFSBackend(dir string) (StorageBackend, error) { return store.NewFSBackend(dir) }

// NewMemoryBackend stores blobs in process memory — ephemeral
// repositories for tests and demos.
func NewMemoryBackend() StorageBackend { return store.NewMemoryBackend() }

// NewStorageBackend constructs a backend by kind name ("fs" or
// "memory").
func NewStorageBackend(kind, dir string) (StorageBackend, error) { return store.NewBackend(kind, dir) }

// OpenStoreBackend opens a repository over any StorageBackend.
func OpenStoreBackend(be StorageBackend) *Store { return store.OpenBackend(be) }
