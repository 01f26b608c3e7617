// Package dram models the DRAM device hierarchy — channels, ranks, banks,
// rows — and its command timing. It provides the bank state machines
// (open row, command occupancy, refresh occupancy) and the physical
// address mapping that the memory controller and the OS share.
//
// The model is request-granular rather than command-granular: for each
// read or write the controller asks a bank to "plan" an access given the
// current bank and data-bus state, and the plan accounts for precharge,
// activate, CAS, burst, tRAS and write-recovery constraints. This is the
// standard simplification used by trace-driven memory studies; the
// queueing behaviour — which is what refresh interference perturbs — is
// modelled faithfully.
package dram

import "refsched/internal/config"

// Timing holds DRAM timing parameters converted to CPU cycles.
type Timing struct {
	// Core command timings (DDR3-1600 defaults at 3.2 GHz CPU clock).
	TCL  uint64 // CAS latency
	TRCD uint64 // activate to CAS
	TRP  uint64 // precharge
	TRAS uint64 // activate to precharge minimum
	TBL  uint64 // burst (data bus occupancy per 64B transfer)
	TWR  uint64 // write recovery before precharge
	TRTP uint64 // read to precharge
	TCCD uint64 // CAS to CAS, same bank group (== TBL here)
	TWTR uint64 // write-to-read turnaround

	// Refresh timings.
	TREFIab uint64 // all-bank refresh command interval (per rank)
	TRFCab  uint64 // all-bank refresh cycle time
	TRFCpb  uint64 // per-bank refresh cycle time (tRFCab / 2.3)
	TREFW   uint64 // retention window (scaled)

	// Geometry needed for refresh bookkeeping.
	RowsPerBank uint64
}

// TimingFrom derives the cycle-domain timing set from a system config.
func TimingFrom(cfg *config.System) Timing {
	c := cfg.Cycles
	return Timing{
		TCL:  c(13.75),
		TRCD: c(13.75),
		TRP:  c(13.75),
		TRAS: c(35),
		TBL:  c(5),
		TWR:  c(15),
		TRTP: c(7.5),
		TCCD: c(5),
		TWTR: c(7.5),

		TREFIab: cfg.TREFIab(),
		TRFCab:  cfg.TRFCab(),
		TRFCpb:  cfg.TRFCpb(),
		TREFW:   cfg.TREFW(),

		RowsPerBank: cfg.Mem.RowsPerBank(),
	}
}

// RefreshCmdsPerWindow returns how many all-bank refresh commands fit in
// one retention window.
func (t *Timing) RefreshCmdsPerWindow() uint64 {
	n := t.TREFW / t.TREFIab
	if n == 0 {
		n = 1
	}
	return n
}

// RowsPerRefresh returns how many rows one refresh command must cover so
// that a bank's rows are fully refreshed once per retention window,
// given cmds commands will target that bank during the window.
func (t *Timing) RowsPerRefresh(cmds uint64) uint64 {
	if cmds == 0 {
		return t.RowsPerBank
	}
	return (t.RowsPerBank + cmds - 1) / cmds
}
