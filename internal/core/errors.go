package core

import "errors"

// Errors returned by graph-manipulation and engine operations. They are
// matched with errors.Is.
var (
	// ErrNotFound indicates a component, edge or feature that is not in
	// the graph.
	ErrNotFound = errors.New("core: not found")
	// ErrDuplicateID indicates a component whose ID is already taken.
	ErrDuplicateID = errors.New("core: duplicate component id")
	// ErrInvalidSpec indicates a component whose Spec is malformed.
	ErrInvalidSpec = errors.New("core: invalid component spec")
	// ErrPortIndex indicates an out-of-range input port index.
	ErrPortIndex = errors.New("core: input port index out of range")
	// ErrPortBusy indicates an input port that already has a connection.
	ErrPortBusy = errors.New("core: input port already connected")
	// ErrKindMismatch indicates a connection whose data kinds are
	// incompatible.
	ErrKindMismatch = errors.New("core: output kind not accepted by input port")
	// ErrMissingFeature indicates a connection whose input port requires
	// a Component Feature the upstream output does not provide.
	ErrMissingFeature = errors.New("core: required feature not provided by upstream")
	// ErrCycle indicates a connection that would make the graph cyclic.
	ErrCycle = errors.New("core: connection would create a cycle")
	// ErrFeatureExists indicates a feature name already attached.
	ErrFeatureExists = errors.New("core: feature already attached")
	// ErrNotProducer indicates a Step on a component that is not a
	// Producer.
	ErrNotProducer = errors.New("core: component is not a producer")
	// ErrRunning indicates a structural change outside Pause, or a
	// StepAll, StepSource or Run, attempted on a started graph.
	ErrRunning = errors.New("core: graph is running")
	// ErrPanicked indicates a component or feature hook panicked during
	// processing; the engine contains it and reports it as an error.
	ErrPanicked = errors.New("core: component panicked")
)
