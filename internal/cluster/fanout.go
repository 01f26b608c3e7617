package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"refsched/internal/core"
	"refsched/internal/harness"
	"refsched/internal/runner"
)

// CellRequest is the wire form of one fan-out cell: the cell's
// harness.CellSpec — its coordinates plus every Params knob that
// changes its simulated result — and the coordinating sweep's context.
// The executing node rebuilds the cell from its spec alone.
type CellRequest struct {
	harness.CellSpec

	Fig      string `json:"fig"`              // coordinating sweep, for logs/timeline
	Origin   string `json:"origin"`           // coordinating node id
	ReqID    string `json:"req_id,omitempty"` // coordinating request id, for trace joins
	Priority int    `json:"priority"`         // coordinating job priority, honoured by the remote gate
}

// CellSnapshotHeader marks a /v1/cells failure response whose body is
// an encoded core snapshot of the cell's partial progress (the
// executing node was draining or lost its caller mid-run and
// checkpointed instead of discarding the work). The coordinator files
// the snapshot in the job's harness.CellStore, so its local run of the
// cell resumes from it rather than recomputing from cycle zero.
const CellSnapshotHeader = "X-Refsched-Cell-Snapshot"

// cellSnapshotError is runRemoteCell's failure carrying the partial
// work back: the dispatch did not complete remotely, but the peer
// shipped a checkpoint to continue from.
type cellSnapshotError struct {
	peer string
	cell runner.Cell
	st   *core.SystemState
}

func (e *cellSnapshotError) Error() string {
	return fmt.Sprintf("cluster: peer %s returned cell %s with a resume snapshot", e.peer, e.cell)
}

// CellEvent describes one completed remote cell dispatch for the
// coordinator's timeline: which cell ran where, on which fan-out lane,
// over what wall-clock interval, and whether the remote execution
// succeeded (ok=false means the cell was reclaimed and re-run locally).
type CellEvent struct {
	Cell       runner.Cell
	Peer       string
	Lane       int // global fan-out lane: peer index × per-peer cap + slot
	Start, End time.Time
	OK         bool
	Err        error
}

// CellObserver receives one CellEvent per remote dispatch attempt. It
// may be called concurrently from multiple workers.
type CellObserver func(CellEvent)

// RunCells is the cluster-aware harness.CellRunner core: it executes a
// sweep's cells with each cell opportunistically dispatched to an alive
// peer (bounded by the per-peer fan-out cap) and the rest — dispatch
// failures and overflow beyond remote capacity — run locally under the
// original gate.
//
// The merge is byte-identical to a local run: a remote cell returns its
// core.Report as JSON, which round-trips float64 exactly (the same
// invariant the journal resume path relies on), and results land at
// their submission index like any RunBatch. Determinism is preserved
// because a dispatched cell is re-created from its coordinates with the
// identical seed, and a failed dispatch falls back to the identical
// local closure.
//
// Scheduling: the pool is widened by the total remote slot count so
// local workers stay busy while remote cells are in flight. The
// caller's Gate is lifted out of opts and applied only around local
// execution — remote cells consume the remote node's budget (that is
// the point of fan-out), so they bypass the local gate entirely.
func (c *Cluster) RunCells(ctx context.Context, figID string, p harness.Params, reqID string, priority int, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report], obs CellObserver) (*runner.Batch[*core.Report], error) {
	if !c.FanoutEnabled() || p.Mode == harness.ModeApprox {
		// Approx cells cost microseconds; a network round-trip per cell
		// would be pure overhead.
		return runner.RunBatch(ctx, jobs, opts)
	}

	gate := opts.Gate
	opts.Gate = nil
	runLocal := func(run func() (*core.Report, error)) (*core.Report, error) {
		if gate != nil {
			release, err := gate(ctx)
			if err != nil {
				return nil, err
			}
			defer release()
		}
		return run()
	}

	wrapped := make([]runner.Job[*core.Report], len(jobs))
	for i, j := range jobs {
		local, cell := j.Run, j.Cell
		spec := p.Spec(cell)
		cr := CellRequest{CellSpec: spec, Fig: figID, Origin: c.self.ID, ReqID: reqID, Priority: priority}
		wrapped[i] = j
		wrapped[i].Run = func() (*core.Report, error) {
			if pr, lane := c.acquireSlot(); pr != nil {
				rep, err := c.runRemoteCell(ctx, pr, cr, cell, lane, obs)
				c.releaseSlot(pr, lane)
				if err == nil {
					return rep, nil
				}
				c.CellsReclaimed.Add(1)
				// A peer that checkpointed before failing ships its
				// partial progress. Filed in the job's store under the
				// cell's key, it is resumed by the local run below —
				// with the job's preemption poll and hard context, like
				// any checkpointed cell — instead of recomputing from
				// cycle zero. The result is byte-identical either way.
				var se *cellSnapshotError
				if errors.As(err, &se) && p.Store != nil {
					p.Store.PutSnapshot(spec.Key(), se.st)
					c.CellsResumed.Add(1)
				}
			}
			return runLocal(local)
		}
	}

	opts.Parallelism = runner.Parallelism(opts.Parallelism) + len(c.order)*c.cfg.FanoutPerPeer
	return runner.RunBatch(ctx, wrapped, opts)
}

// acquireSlot picks the alive peer with the most free fan-out capacity
// and takes one of its slot tokens, without blocking: when every peer
// is saturated (or down) the cell simply runs locally. It returns the
// chosen peer and the global lane index, or (nil, 0).
func (c *Cluster) acquireSlot() (*peer, int) {
	var best *peer
	for _, id := range c.order {
		p := c.peers[id]
		if !p.alive() || len(p.slots) == 0 {
			continue
		}
		if best == nil || len(p.slots) > len(best.slots) {
			best = p
		}
	}
	if best == nil {
		return nil, 0
	}
	select {
	case s := <-best.slots:
		return best, best.laneBase + s
	default:
		return nil, 0 // lost the race for the last slot
	}
}

// releaseSlot returns lane's token to p.
func (c *Cluster) releaseSlot(p *peer, lane int) {
	p.slots <- lane - p.laneBase
}

// runRemoteCell executes one cell on p via POST /v1/cells and
// decodes the report. Any failure — transport, non-200, decode — is
// returned for local reclamation; transport failures additionally count
// against the peer's health so a dead node is deserted quickly, without
// waiting for the prober.
func (c *Cluster) runRemoteCell(ctx context.Context, p *peer, cr CellRequest, cell runner.Cell, lane int, obs CellObserver) (rep *core.Report, err error) {
	start := time.Now()
	defer func() {
		if obs != nil {
			obs(CellEvent{Cell: cell, Peer: p.id, Lane: lane, Start: start, End: time.Now(), OK: err == nil, Err: err})
		}
	}()

	body, err := json.Marshal(cr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+p.addr+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.CellsDispatched.Add(1)
	p.cellsTo.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		c.ObservePeer(p.id, false)
		return nil, fmt.Errorf("cluster: dispatch %s to %s: %w", cell, p.id, err)
	}
	defer resp.Body.Close()
	c.ObservePeer(p.id, true)
	if resp.StatusCode != http.StatusOK {
		if resp.Header.Get(CellSnapshotHeader) != "" {
			// The peer could not finish but checkpointed: the body is the
			// cell's partial progress, decoded here and resumed by the
			// caller. A snapshot that does not decode degrades to the
			// plain rejection below.
			st, derr := core.DecodeSnapshot(io.LimitReader(resp.Body, 64<<20), "peer "+p.id)
			if derr == nil {
				return nil, &cellSnapshotError{peer: p.id, cell: cell, st: st}
			}
			return nil, fmt.Errorf("cluster: peer %s shipped an unreadable cell snapshot for %s: %w",
				p.id, cell, derr)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: peer %s rejected cell %s: %s (%s)",
			p.id, cell, resp.Status, bytes.TrimSpace(msg))
	}
	var out core.Report
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&out); err != nil {
		return nil, fmt.Errorf("cluster: decoding cell %s from %s: %w", cell, p.id, err)
	}
	return &out, nil
}
