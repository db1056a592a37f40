package store

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cost"
	"repro/internal/evolve"
	"repro/internal/spec"
)

// Spec lineage: the store tracks which specification a version evolved
// from. Each parent→child step is stored once, as the parent link in
// the child's lineage.json; its spec-to-spec edit mapping is computed
// from the two stored specifications (evolve.SpecDiff) on first use
// and cached in memory.
//
// Layout, per child specification:
//
//	<root>/<child>/lineage.json           {"version":1,"parent":"<name>"}
//
// Mappings between lineage-linked specs further apart than one step
// are composed from the per-step mappings; unlinked pairs are mapped
// directly on demand.

// lineageVersion guards the lineage.json schema.
const lineageVersion = 1

type lineageDoc struct {
	Version int    `json:"version"`
	Parent  string `json:"parent"`
}

func lineageKey(specName string) string { return specName + "/lineage.json" }

// PutSpecVersion stores child as a new specification version evolved
// from the stored specification parentName: the child spec is saved
// under childName, the lineage link is recorded, and the parent→child
// edit mapping is computed (under evolve.DefaultCosts) and cached in
// memory.
func (s *Store) PutSpecVersion(parentName, childName string, child *spec.Spec) error {
	if err := validateNames(parentName, childName); err != nil {
		return err
	}
	if parentName == childName {
		return fmt.Errorf("store: a specification cannot be its own parent")
	}
	if child == nil {
		return fmt.Errorf("store: nil specification")
	}
	// Refuse links that would close a cycle: if the child already
	// appears in the parent's ancestry, writing this record would
	// leave every lineage walk over these specs failing forever.
	parentChain, err := s.Lineage(parentName)
	if err != nil {
		return err
	}
	if slices.Contains(parentChain, childName) {
		return fmt.Errorf("store: linking %q under %q would create a lineage cycle (%q descends from %q)",
			childName, parentName, parentName, childName)
	}
	parent, err := s.LoadSpec(parentName)
	if err != nil {
		return err
	}
	if err := s.SaveSpec(childName, child); err != nil {
		return err
	}
	m, err := evolve.SpecDiff(parent, child, evolve.DefaultCosts())
	if err != nil {
		return err
	}
	doc, err := json.Marshal(lineageDoc{Version: lineageVersion, Parent: parentName})
	if err != nil {
		return err
	}
	if err := s.be.WriteFile(lineageKey(childName), append(doc, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// SaveSpec above already dropped any mapping involving the child.
	s.cacheMapping(mappingKey(parentName, childName), m)
	return nil
}

// Parent returns the recorded parent version of a specification, or ""
// when the specification has no lineage link.
func (s *Store) Parent(specName string) (string, error) {
	if err := ValidateName(specName); err != nil {
		return "", err
	}
	data, err := s.be.ReadFile(lineageKey(specName))
	if err != nil {
		if isNotExist(err) {
			return "", nil
		}
		return "", fmt.Errorf("store: %w", err)
	}
	var doc lineageDoc
	if err := json.Unmarshal(data, &doc); err != nil || doc.Version != lineageVersion {
		return "", fmt.Errorf("store: malformed lineage record for %q", specName)
	}
	if err := ValidateName(doc.Parent); err != nil {
		return "", fmt.Errorf("store: lineage record of %q: %w", specName, err)
	}
	return doc.Parent, nil
}

// Lineage returns the version chain of a specification, oldest-last:
// [name, parent, grandparent, ...].
func (s *Store) Lineage(specName string) ([]string, error) {
	if err := ValidateName(specName); err != nil {
		return nil, err
	}
	chain := []string{specName}
	seen := map[string]bool{specName: true}
	cur := specName
	for {
		parent, err := s.Parent(cur)
		if err != nil {
			return nil, err
		}
		if parent == "" {
			return chain, nil
		}
		if seen[parent] {
			return nil, fmt.Errorf("store: lineage of %q contains a cycle at %q", specName, parent)
		}
		seen[parent] = true
		chain = append(chain, parent)
		cur = parent
	}
}

func mappingKey(a, b string) string { return a + "\x00" + b }

// maxCachedMappings bounds the in-memory mapping cache. Lineage-step
// mappings are bounded by the number of stored specs, but unlinked
// pairs are client-controlled (every /specs/{a}/evolve/{b} pair is a
// distinct key), so past the cap those are computed per call instead
// of growing the map without bound.
const maxCachedMappings = 256

// cacheMapping inserts a computed mapping unless the cache is at
// capacity; it returns the canonical mapping for the key (the first
// one cached wins when goroutines race).
func (s *Store) cacheMapping(key string, m *evolve.SpecMapping) *evolve.SpecMapping {
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	if have, ok := s.mappings[key]; ok {
		return have
	}
	if len(s.mappings) < maxCachedMappings {
		s.mappings[key] = m
	}
	return m
}

// dropMappings evicts every cached mapping involving the named spec —
// called when a specification is overwritten so no mapping keeps
// pointers into the replaced spec object.
func (s *Store) dropMappings(specName string) {
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	for key := range s.mappings {
		a, b, _ := strings.Cut(key, "\x00")
		if a == specName || b == specName {
			delete(s.mappings, key)
		}
	}
}

// Linked reports whether two stored specifications are lineage-linked
// (equal, or one descends from the other) — the cheap pre-check for
// cross-version diffing, walking only lineage records.
func (s *Store) Linked(aName, bName string) (bool, error) {
	if err := validateNames(aName, bName); err != nil {
		return false, err
	}
	if aName == bName {
		return true, nil
	}
	chain, err := s.Lineage(bName)
	if err != nil {
		return false, err
	}
	if slices.Contains(chain, aName) {
		return true, nil
	}
	if chain, err = s.Lineage(aName); err != nil {
		return false, err
	}
	return slices.Contains(chain, bName), nil
}

// directMapping returns the edit mapping from a to b computed directly
// (evolve.SpecDiff) from the two stored specifications, from the
// in-memory cache when it holds one: one lineage step's mapping, or an
// unlinked pair's.
func (s *Store) directMapping(aName, bName string) (*evolve.SpecMapping, error) {
	s.mapMu.Lock()
	if m, ok := s.mappings[mappingKey(aName, bName)]; ok {
		s.mapMu.Unlock()
		return m, nil
	}
	s.mapMu.Unlock()
	a, err := s.LoadSpec(aName)
	if err != nil {
		return nil, err
	}
	b, err := s.LoadSpec(bName)
	if err != nil {
		return nil, err
	}
	m, err := evolve.SpecDiff(a, b, evolve.DefaultCosts())
	if err != nil {
		return nil, err
	}
	return s.cacheMapping(mappingKey(aName, bName), m), nil
}

// SpecMapping returns the edit mapping from specification version a to
// version b, and whether the two are lineage-linked. Linked pairs
// compose the per-step mappings (inverted when a descends from b);
// unlinked pairs are mapped directly and cached in memory.
func (s *Store) SpecMapping(aName, bName string) (m *evolve.SpecMapping, linked bool, err error) {
	if err := validateNames(aName, bName); err != nil {
		return nil, false, err
	}
	if aName == bName {
		sp, err := s.LoadSpec(aName)
		if err != nil {
			return nil, false, err
		}
		return evolve.Identity(sp), true, nil
	}
	// b descends from a?
	chain, err := s.Lineage(bName)
	if err != nil {
		return nil, false, err
	}
	for i, anc := range chain {
		if anc != aName {
			continue
		}
		// chain[i] == a ... chain[0] == b; compose steps downward.
		m, err := s.directMapping(chain[i], chain[i-1])
		if err != nil {
			return nil, false, err
		}
		for j := i - 1; j > 0; j-- {
			step, err := s.directMapping(chain[j], chain[j-1])
			if err != nil {
				return nil, false, err
			}
			if m, err = evolve.Compose(m, step); err != nil {
				return nil, false, err
			}
		}
		return m, true, nil
	}
	// a descends from b?
	chain, err = s.Lineage(aName)
	if err != nil {
		return nil, false, err
	}
	if slices.Contains(chain[1:], bName) {
		rev, _, err := s.SpecMapping(bName, aName)
		if err != nil {
			return nil, false, err
		}
		return rev.Invert(), true, nil
	}
	// Unlinked: map directly, cache in memory only.
	m, err = s.directMapping(aName, bName)
	return m, false, err
}

// CrossDiff compares a run of specification version a with a run of
// version b through their spec mapping: runA is projected into b's
// node space, differenced against runB, and the regions the mapping
// could not carry are priced as inserts and deletes. It reports
// whether the two versions are lineage-linked.
func (s *Store) CrossDiff(aName, runA, bName, runB string, m cost.Model) (*evolve.CrossResult, bool, error) {
	mapping, linked, err := s.SpecMapping(aName, bName)
	if err != nil {
		return nil, false, err
	}
	ra, err := s.LoadRun(aName, runA)
	if err != nil {
		return nil, linked, err
	}
	rb, err := s.LoadRun(bName, runB)
	if err != nil {
		return nil, linked, err
	}
	res, err := evolve.CrossDiff(mapping, ra, rb, m)
	if err != nil {
		return nil, linked, err
	}
	return res, linked, nil
}
