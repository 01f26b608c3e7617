// Package mc implements the memory controller: FR-FCFS transaction
// scheduling over read/write queues, watermark-batched write draining,
// and refresh execution driven by a pluggable refresh policy.
//
// One Controller manages one DRAM channel. Demand reads complete by
// callback; writes are posted (they occupy a write-queue slot until their
// data burst finishes but nobody waits on them), which models a
// write-back last-level cache draining evictions.
package mc

import (
	"refsched/internal/dram"
	"refsched/internal/sim"
)

// Request is one memory transaction (a 64-byte line read or write). It
// is plain data, and a checkpoint holds queued requests by value.
// Once a controller has issued a request it reuses it for a later one
// (see Controller.NewRequest): nothing may hold a request past its
// issue. Its completion event carries the Owner words instead.
type Request struct {
	Addr  uint64
	Coord dram.Coord
	Write bool
	// TaskID identifies the owning task for per-task accounting
	// (-1 when unattributed).
	TaskID int

	// Arrive is when the request entered the controller queue.
	Arrive sim.Time
	// RefreshStalled is set if the request ever waited on a
	// refresh-busy bank.
	RefreshStalled bool

	// Owner identifies the core-side miss to notify at completion time
	// (reads only; posted writes leave it zero). It is plain data so
	// in-flight requests are serializable: the completion event carries
	// these words and the dispatcher routes them back to
	// cpu.Core.MissComplete.
	Owner Owner

	// Bypasses counts the younger row hits that overtook this request.
	Bypasses int
}

// Owner names the issuing core's outstanding miss for a demand read.
type Owner struct {
	Valid bool
	Core  int
	// Miss is the core-local miss id; Epoch guards against stale
	// completions after a context switch (see cpu.Core.MissComplete).
	Miss  uint64
	Epoch uint64
}

// Stats aggregates controller-level counters.
type Stats struct {
	Reads  uint64
	Writes uint64

	ReadLatencySum    uint64 // cycles, arrive -> data end
	ReadQueueDelaySum uint64 // cycles, arrive -> issue

	// RefreshStalledReads counts demand reads that waited on a
	// refresh-busy bank; RefreshStallCycles accumulates the waiting.
	RefreshStalledReads uint64
	RefreshStallCycles  uint64

	RefreshCommands uint64
	RefreshSkipped  uint64
	// RefreshPauses counts in-progress refreshes aborted in favour of
	// demand requests (refresh-pausing policies only).
	RefreshPauses uint64

	WriteDrains uint64 // drain episodes entered

	// QueueFullReadStalls counts submissions rejected for a full read
	// queue (back-pressure events).
	QueueFullReadStalls  uint64
	QueueFullWriteStalls uint64
}
