package sim

import "fmt"

// Fault is the marker interface for typed simulation-fault values.
//
// Components deep inside the event loop (the engine, the kernel and
// its page tables) cannot return errors through their hot-path
// signatures, so a detected fault unwinds as a panic carrying a typed
// value implementing Fault. The core run API recovers these at its
// boundary and converts them into ordinary returned errors, so one bad
// simulation cell degrades into a quarantined failure instead of
// crashing the whole sweep. Panics with values that do not implement
// Fault are genuine programmer invariants and are re-raised untouched.
type Fault interface {
	error
	// SimulationFault distinguishes deliberate fault values from
	// arbitrary error-typed panic values.
	SimulationFault()
}

// PastEventError is the Fault raised when a component schedules an
// event before the current simulated time — always a component
// bookkeeping bug, but one that should fail the offending cell, not the
// process.
type PastEventError struct {
	T   Time // requested event time
	Now Time // engine clock when the request was made
}

// Error implements error.
func (e *PastEventError) Error() string {
	return fmt.Sprintf("sim: event scheduled in the past (t=%d, now=%d)", e.T, e.Now)
}

// SimulationFault implements Fault.
func (*PastEventError) SimulationFault() {}
