package wfrun

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/spec"
)

// Event is one node-status observation from a still-executing run: a
// new provenance edge between two task instances, optionally carrying
// the specification edge it instantiates. It is the streaming analogue
// of one <edge> row in the run XML; node labels ride along so an event
// can introduce instances the receiver has not seen yet.
type Event struct {
	From      string `json:"from"`
	To        string `json:"to"`
	FromLabel string `json:"from_label,omitempty"`
	ToLabel   string `json:"to_label,omitempty"`
	SpecFrom  string `json:"spec_from,omitempty"`
	SpecTo    string `json:"spec_to,omitempty"`
	SpecKey   int    `json:"spec_key,omitempty"`
	Implicit  bool   `json:"implicit,omitempty"`
}

// liveEdge is one accepted event, resolved against the specification.
type liveEdge struct {
	e        graph.Edge
	ref      graph.Edge // zero when implicit
	implicit bool
}

// Live collects a run from a stream of Events. Each event is validated
// as it arrives; the run is derived once, by Complete, through the same
// Derive call an XML import makes. Events may arrive in any order. Live
// is not safe for concurrent use.
type Live struct {
	sp *spec.Spec

	nodeOrder []graph.NodeID
	labels    map[graph.NodeID]string
	keySeq    map[[2]graph.NodeID]int
	edges     []liveEdge
	counts    []int // executed instances per specification leaf

	done bool
}

// NewLive starts collecting a run of sp.
func NewLive(sp *spec.Spec) *Live {
	_, total := sp.Interval(sp.Tree)
	return &Live{
		sp:     sp,
		labels: make(map[graph.NodeID]string),
		keySeq: make(map[[2]graph.NodeID]int),
		counts: make([]int, total),
	}
}

// resolve maps an event to its specification edge, or reports it an
// implicit loop back edge, by the rule Derive applies; an explicit
// specification reference must carry the event's labels.
func (l *Live) resolve(ev Event, fromLabel, toLabel string) (ref graph.Edge, implicit bool, err error) {
	cands, loopBack := l.sp.LabelPair(fromLabel, toLabel)
	if ev.Implicit {
		if _, implicit, err := classify(cands, loopBack, fromLabel, toLabel); err != nil || !implicit {
			return ref, false, fmt.Errorf("wfrun: implicit event (%s,%s) matches no loop back edge", fromLabel, toLabel)
		}
		return ref, true, nil
	}
	if ev.SpecFrom == "" {
		ref, implicit, err = classify(cands, loopBack, fromLabel, toLabel)
		if err != nil {
			return ref, false, fmt.Errorf("wfrun: event %s->%s: %w", ev.From, ev.To, err)
		}
		return ref, implicit, nil
	}
	ref = graph.Edge{From: graph.NodeID(ev.SpecFrom), To: graph.NodeID(ev.SpecTo), Key: ev.SpecKey}
	if _, ok := l.sp.LeafIndex(ref); !ok {
		return ref, false, fmt.Errorf("wfrun: event references unknown specification edge %s", ref)
	}
	// Compare labels, not node IDs: the homomorphism h preserves
	// labels, and a specification is free to label its modules
	// independently of its node identifiers.
	if l.sp.G.Label(ref.From) != fromLabel || l.sp.G.Label(ref.To) != toLabel {
		return ref, false, fmt.Errorf("wfrun: event labels (%s,%s) do not match specification edge %s", fromLabel, toLabel, ref)
	}
	return ref, false, nil
}

// Append validates and records one event. Nothing is derived until
// Complete.
func (l *Live) Append(ev Event) error {
	if l.done {
		return fmt.Errorf("wfrun: run already completed")
	}
	if ev.From == "" || ev.To == "" {
		return fmt.Errorf("wfrun: event with empty node id")
	}
	fromLabel, err := l.noteLabel(graph.NodeID(ev.From), ev.FromLabel)
	if err != nil {
		return err
	}
	toLabel, err := l.noteLabel(graph.NodeID(ev.To), ev.ToLabel)
	if err != nil {
		return err
	}
	ref, implicit, err := l.resolve(ev, fromLabel, toLabel)
	if err != nil {
		return err
	}
	from, to := graph.NodeID(ev.From), graph.NodeID(ev.To)
	l.addNode(from, fromLabel)
	l.addNode(to, toLabel)
	pair := [2]graph.NodeID{from, to}
	e := graph.Edge{From: from, To: to, Key: l.keySeq[pair]}
	l.keySeq[pair]++
	if !implicit {
		leaf, _ := l.sp.LeafIndex(ref)
		l.counts[leaf]++
	}
	l.edges = append(l.edges, liveEdge{e: e, ref: ref, implicit: implicit})
	return nil
}

// noteLabel resolves the label of a (possibly new) node, enforcing
// label consistency with previous events.
func (l *Live) noteLabel(id graph.NodeID, label string) (string, error) {
	if have, ok := l.labels[id]; ok {
		if label != "" && label != have {
			return "", fmt.Errorf("wfrun: node %s already seen with label %q (event says %q)", id, have, label)
		}
		return have, nil
	}
	if label == "" {
		return "", fmt.Errorf("wfrun: event introduces node %s without a label", id)
	}
	return label, nil
}

func (l *Live) addNode(id graph.NodeID, label string) {
	if _, ok := l.labels[id]; ok {
		return
	}
	l.nodeOrder = append(l.nodeOrder, id)
	l.labels[id] = label
}

// Events reports the number of accepted events; Nodes and Edges the
// size of the accumulated run graph; Counts a copy of the per-leaf
// executed-instance histogram (indexed by specification leaf index),
// bucketed exactly as Run.LeafCounts buckets the completed run.
func (l *Live) Events() int { return len(l.edges) }
func (l *Live) Nodes() int  { return len(l.nodeOrder) }
func (l *Live) Edges() int  { return len(l.edges) }
func (l *Live) Counts() []int {
	return append([]int(nil), l.counts...)
}

// Deprecated: Sync does nothing. A live run is derived once, by
// Complete; drop the call.
func (l *Live) Sync() {}

// Complete finishes the run. It builds the graph wfxml.DecodeRun
// builds from the run's XML — nodes in event arrival order, edges in
// document order (From, To, Key) — passes the specification reference
// of every non-implicit edge, and derives the tree with Derive, so
// encoding the result and re-parsing it reproduces the same run
// byte-for-byte. A run that fails to derive stays open for more events.
func (l *Live) Complete() (*Run, error) {
	if l.done {
		return nil, fmt.Errorf("wfrun: run already completed")
	}
	if len(l.edges) == 0 {
		return nil, fmt.Errorf("wfrun: cannot complete an empty run")
	}
	sort.Slice(l.edges, func(i, j int) bool {
		a, b := l.edges[i].e, l.edges[j].e
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Key < b.Key
	})
	g := graph.New()
	for _, id := range l.nodeOrder {
		g.MustAddNode(id, l.labels[id])
	}
	// Parallel edges sort adjacent in key order and AddEdge assigns
	// keys sequentially per endpoint pair, so each edge keeps its key.
	refs := make([]graph.Edge, len(l.edges))
	for i, le := range l.edges {
		g.MustAddEdge(le.e.From, le.e.To)
		if !le.implicit {
			refs[i] = le.ref
		}
	}
	run, err := Derive(l.sp, g, refs)
	if err != nil {
		return nil, err
	}
	l.done = true
	return run, nil
}

// Events flattens a completed run back into its event stream, in the
// run graph's edge order. Replaying the result through a fresh Live
// reconstructs an equivalent run; this is the bridge between stored
// runs and the streaming ingest path (tests, load generation, drift
// baselines).
func Events(r *Run) []Event {
	refs := r.EdgeRefs()
	implicit := make(map[graph.Edge]bool, len(r.ImplicitEdges))
	for _, e := range r.ImplicitEdges {
		implicit[e] = true
	}
	out := make([]Event, 0, r.Graph.NumEdges())
	for i, e := range r.Graph.Edges() {
		u, v := r.Graph.Ends(i)
		ev := Event{
			From:      string(e.From),
			To:        string(e.To),
			FromLabel: r.Graph.LabelAt(u),
			ToLabel:   r.Graph.LabelAt(v),
		}
		if implicit[e] {
			ev.Implicit = true
		} else if ref := refs[i]; ref.From != "" {
			ev.SpecFrom = string(ref.From)
			ev.SpecTo = string(ref.To)
			ev.SpecKey = ref.Key
		}
		out = append(out, ev)
	}
	return out
}
