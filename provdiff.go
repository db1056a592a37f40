// Package provdiff is a Go implementation of "Differencing Provenance
// in Scientific Workflows" (Bao, Cohen-Boulakia, Davidson, Eyal,
// Khanna; ICDE 2009 / UPenn TR MS-CIS-08-04).
//
// Scientific workflow runs repeat modules through forks and loops, so
// two runs of the same specification cannot be compared by naive
// node/edge set difference. This package models SP-workflow
// specifications — series-parallel graphs overlaid with well-nested
// forks and loops — and computes, in polynomial time, the edit
// distance between two valid runs: the minimum-cost sequence of
// elementary path insertions and deletions (plus loop expansions and
// contractions) transforming one run into the other while keeping
// every intermediate graph a valid run.
//
// The essential flow:
//
//	g := provdiff.NewGraph()
//	... add modules and links ...
//	sp, err := provdiff.NewSpec(g, forks, loops)
//	r1, err := provdiff.Execute(sp, decider)          // or DeriveRun / DecodeRun
//	r2, err := provdiff.Execute(sp, otherDecider)
//	res, err := provdiff.Diff(r1, r2, provdiff.Unit{})
//	script, _, err := res.Script()
//
// For batch workloads — distance matrices over run cohorts, repository
// cohort analysis, many-pair sweeps — construct one Engine per
// goroutine and reuse it: all memoization tables, matcher scratch and
// deletion DP buffers are flat slices reset between calls, so k diffs
// perform O(1) steady-state allocation:
//
//	eng := provdiff.NewEngine(provdiff.Unit{})
//	for _, pair := range pairs {
//		res, err := eng.Diff(pair.A, pair.B)   // res.Distance is always valid
//		...                                    // extract res.Mapping()/res.Script()
//	}                                          // before the next eng.Diff
//
// The cost model is pluggable: any metric γ(length, srcLabel,
// dstLabel) satisfying the paper's quadrangle inequality works; the
// built-in family is γ(l) = l^ε for ε ∈ [0, 1].
package provdiff

import (
	"io"
	"math/rand"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/edit"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// Graph modeling.
type (
	// Graph is a node-labeled directed multigraph.
	Graph = graph.Graph
	// NodeID identifies a node of a Graph.
	NodeID = graph.NodeID
	// Edge is a directed (possibly parallel) edge.
	Edge = graph.Edge
)

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// Specifications.
type (
	// Spec is a validated SP-workflow specification (G, F, L).
	Spec = spec.Spec
	// EdgeSet identifies a fork or loop subgraph by its edges.
	EdgeSet = spec.EdgeSet
	// SpecStats are the Table I characteristics of a specification.
	SpecStats = spec.Stats
)

// NewSpec validates an SP specification graph with fork and loop
// subgraphs and builds its annotated SP-tree (Algorithm 1).
func NewSpec(g *Graph, forks, loops []EdgeSet) (*Spec, error) {
	return spec.New(g, forks, loops)
}

// Runs.
type (
	// Run is a valid run: annotated SP-tree plus materialized graph.
	Run = wfrun.Run
	// Decider supplies the choices of the execution function f′.
	Decider = wfrun.Decider
	// FullDecider takes every branch once with no replication.
	FullDecider = wfrun.FullDecider
)

// Execute produces a valid run of sp with choices drawn from d.
func Execute(sp *Spec, d Decider) (*Run, error) { return wfrun.Execute(sp, d) }

// DeriveRun computes the annotated SP-tree of a run given as a bare
// graph (Algorithms 2 and 5). edgeRefs[i], when set, is the
// specification edge that g.Edges()[i] instantiates; it may be nil
// unless the specification has parallel edges between the same labels.
func DeriveRun(sp *Spec, g *Graph, edgeRefs []Edge) (*Run, error) {
	return wfrun.Derive(sp, g, edgeRefs)
}

// Cost models.
type (
	// CostModel prices elementary path edits.
	CostModel = cost.Model
	// Unit is γ(l) = 1.
	Unit = cost.Unit
	// Length is γ(l) = l.
	Length = cost.Length
	// Power is γ(l) = l^ε.
	Power = cost.Power
)

// CheckMetric verifies the metric conditions on a cost model.
func CheckMetric(m CostModel, maxLen int, labels []string) error {
	return cost.CheckMetric(m, maxLen, labels)
}

// Differencing.
type (
	// Result is a computed diff; it yields the distance, the
	// well-formed mapping and the minimum-cost edit script.
	Result = core.Result
	// Engine is a reusable differencing engine for batch workloads:
	// one engine per goroutine, scratch reused across Diff calls.
	Engine = core.Engine
	// Script is a sequence of applied edit operations.
	Script = edit.Script
	// Op is one elementary edit operation.
	Op = edit.Op
)

// NewEngine returns a reusable differencing engine under the given
// cost model. Results of Engine.Diff borrow the engine's tables:
// extract Mapping/Script before the same engine runs another Diff
// (Distance is always valid). Engines are not safe for concurrent
// use; create one per goroutine.
func NewEngine(m CostModel) *Engine { return core.NewEngine(m) }

// Diff computes the edit distance between two valid runs of the same
// specification (Algorithms 3, 4 and 6; O(|E|³)).
func Diff(r1, r2 *Run, m CostModel) (*Result, error) { return core.Diff(r1, r2, m) }

// Distance returns only δ(R1, R2).
func Distance(r1, r2 *Run, m CostModel) (float64, error) { return core.Distance(r1, r2, m) }

// EvaluateScript re-prices a script under another cost model.
func EvaluateScript(s *Script, m CostModel) float64 { return core.EvaluateScript(s, m) }

// Serving (the provserved HTTP layer over a Store — see extensions.go
// for the Store itself).
type (
	// AnalysisOptions tunes cohort fan-out and progress reporting.
	AnalysisOptions = analysis.Options
	// ServerOptions configures the HTTP service handler.
	ServerOptions = server.Options
)

// ValidateName reports whether a spec or run name is safe to store:
// every boundary accepting untrusted names (CLI, HTTP) rejects path
// separators, traversal components and NUL bytes through it.
func ValidateName(name string) error { return store.ValidateName(name) }

// NewServerHandler returns the provserved HTTP handler over an open
// repository: REST browsing/import, cached differencing with pooled
// engines, cohort matrices with streamed progress, SVG diff renderings
// and service stats. Mount it on any http.Server.
func NewServerHandler(st *Store, opts ServerOptions) http.Handler {
	return server.New(st, opts)
}

// Generation.
type (
	// SpecConfig controls RandomSpec.
	SpecConfig = gen.SpecConfig
	// RunParams are the probP/probF/maxF/probL/maxL parameters.
	RunParams = gen.RunParams
)

// RandomSpec generates a random SP-workflow specification.
func RandomSpec(cfg SpecConfig, rng *rand.Rand) (*Spec, error) { return gen.RandomSpec(cfg, rng) }

// DefaultRunParams mirrors the paper's common run-generation setting.
func DefaultRunParams() RunParams { return gen.DefaultRunParams() }

// RandomRun executes a random valid run.
func RandomRun(sp *Spec, p RunParams, rng *rand.Rand) (*Run, error) {
	return gen.RandomRun(sp, p, rng)
}

// RunWithTargetEdges generates a run with approximately target edges.
func RunWithTargetEdges(sp *Spec, target int, tol float64, p RunParams, rng *rand.Rand) (*Run, error) {
	return gen.RunWithTargetEdges(sp, target, tol, p, rng)
}

// Catalog builds one of the six Table I workflow specifications
// ("PA", "EMBOSS", "SAXPF", "MB", "PGAQ", "BAIDD").
func Catalog(name string) (*Spec, error) { return gen.Catalog(name) }

// CatalogNames lists the Table I workflows.
func CatalogNames() []string { return append([]string(nil), gen.CatalogNames...) }

// ProteinAnnotation builds the full Fig. 1 protein annotation
// workflow.
func ProteinAnnotation() (*Spec, error) { return gen.ProteinAnnotation() }

// XML round-tripping (the prototype's storage format).

// EncodeSpec writes a specification as XML.
func EncodeSpec(w io.Writer, sp *Spec, name string) error { return wfxml.EncodeSpec(w, sp, name) }

// DecodeSpec reads a specification from XML.
func DecodeSpec(r io.Reader) (*Spec, error) { return wfxml.DecodeSpec(r) }

// EncodeRun writes a run as XML with specification edge references.
func EncodeRun(w io.Writer, run *Run, name string) error { return wfxml.EncodeRun(w, run, name) }

// DecodeRun reads a run from XML and derives its annotated tree.
func DecodeRun(r io.Reader, sp *Spec) (*Run, error) { return wfxml.DecodeRun(r, sp) }

// Binary run codec (the form in which the store keeps runs): versioned,
// CRC-checksummed frames holding the *result* of an XML parse, so
// decoding skips validation and tree derivation entirely. XML remains
// the interchange format, and the only stored form of a specification.

// EncodeRunBinary serializes a run as a binary snapshot frame.
func EncodeRunBinary(run *Run) ([]byte, error) { return codec.EncodeRun(run) }

// DecodeRunBinary rebuilds a run from a snapshot frame against its
// specification, without re-deriving the tree. Corrupt or mismatched
// frames fail loudly.
func DecodeRunBinary(data []byte, sp *Spec) (*Run, error) { return codec.DecodeRun(data, sp) }
