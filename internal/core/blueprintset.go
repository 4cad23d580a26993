package core

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by BlueprintSet operations.
var (
	// ErrUnknownRevision indicates a revision number the set does not
	// hold.
	ErrUnknownRevision = errors.New("core: unknown blueprint revision")
)

// BlueprintSet is a named, append-only sequence of immutable blueprint
// revisions — the paper's adaptation story (§3) lifted from one live
// graph to a fleet definition. Individual blueprints stay frozen
// forever (the PR 2 contract); evolution happens by appending a new
// revision and migrating live instances across the structural diff
// between two revisions (see BlueprintDiff / MigrationPlan).
//
// Revisions are numbered from 1 in Add order. Add freezes the
// blueprint, so every revision in a set is immutable and safe to share;
// all methods are safe for concurrent use.
type BlueprintSet struct {
	name string

	mu    sync.Mutex
	revs  []*Blueprint
	plans map[[2]int]*MigrationPlan
}

// NewBlueprintSet returns an empty set for the named pipeline.
func NewBlueprintSet(name string) *BlueprintSet {
	return &BlueprintSet{name: name, plans: make(map[[2]int]*MigrationPlan)}
}

// Name returns the pipeline name the revisions describe.
func (s *BlueprintSet) Name() string { return s.name }

// Add appends bp as the next revision, freezing it, and returns its
// revision number (1-based).
func (s *BlueprintSet) Add(bp *Blueprint) (int, error) {
	if bp == nil {
		return 0, fmt.Errorf("%w: nil blueprint", ErrInvalidSpec)
	}
	bp.freeze()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.revs = append(s.revs, bp)
	return len(s.revs), nil
}

// Revision returns revision n (1-based).
func (s *BlueprintSet) Revision(n int) (*Blueprint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 || n > len(s.revs) {
		return nil, fmt.Errorf("%w: %s@%d (have 1..%d)", ErrUnknownRevision, s.name, n, len(s.revs))
	}
	return s.revs[n-1], nil
}

// Latest returns the highest revision number (0 for an empty set).
func (s *BlueprintSet) Latest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.revs)
}

// Diff returns the structural diff from revision `from` to revision
// `to`.
func (s *BlueprintSet) Diff(from, to int) (*BlueprintDiff, error) {
	p, err := s.Plan(from, to)
	if err != nil {
		return nil, err
	}
	return p.Diff, nil
}

// Plan returns the migration plan mapping a live instance of revision
// `from` onto revision `to`. Plans are immutable and cached per
// (from, to) pair, so a fleet rollout computes the diff once.
func (s *BlueprintSet) Plan(from, to int) (*MigrationPlan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.revs)
	if from < 1 || from > n {
		return nil, fmt.Errorf("%w: %s@%d (have 1..%d)", ErrUnknownRevision, s.name, from, n)
	}
	if to < 1 || to > n {
		return nil, fmt.Errorf("%w: %s@%d (have 1..%d)", ErrUnknownRevision, s.name, to, n)
	}
	key := [2]int{from, to}
	if p, ok := s.plans[key]; ok {
		return p, nil
	}
	p := PlanMigration(s.revs[from-1], s.revs[to-1])
	s.plans[key] = p
	return p, nil
}

// Migrate maps a live, quiescent graph instantiated from revision
// `from` onto revision `to` by applying the cached migration plan (see
// MigrationPlan.Apply for the state-carry and failure semantics). The
// opts are the same per-instance overrides the graph was instantiated
// with — use WithOptionalOverride for slots that exist in only some
// revisions.
func (s *BlueprintSet) Migrate(g *Graph, from, to int, opts ...InstantiateOption) error {
	p, err := s.Plan(from, to)
	if err != nil {
		return err
	}
	return p.Apply(g, opts...)
}
