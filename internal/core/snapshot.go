package core

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/cpu"
	"refsched/internal/dram"
	"refsched/internal/kernel"
	"refsched/internal/mc"
	"refsched/internal/metrics"
	"refsched/internal/sim"
	"refsched/internal/workload"
)

// SystemState is the complete serializable state of a running System at
// an event-quiescent point (between engine run legs): the identity
// needed to rebuild an identical machine (config, mix, footprint
// scale), the run's interval parameters, and every layer's mutable
// state. A system restored from it and run to completion produces
// byte-identical output to the original run — the engine's pending
// events carry their original (when, seq) order, every counter and
// random stream resumes exactly, and the warmup metrics snapshot is
// carried along so the final report diffs against the same baseline.
type SystemState struct {
	// Identity: Restore rebuilds the machine from these.
	Cfg            config.System
	Mix            workload.Mix
	FootprintScale float64

	// Interval parameters of the interrupted run.
	Warmup  uint64
	Measure uint64
	// PastWarmup marks a checkpoint taken after the warmup boundary;
	// WarmupSnap then holds the registry snapshot from that boundary.
	PastWarmup bool
	WarmupSnap metrics.Snapshot

	// Per-layer state.
	Engine sim.EngineState
	Chans  []dram.ChannelState
	MCs    []mc.ControllerState
	Cores  []cpu.CoreState
	Kernel kernel.State
}

// Cycle returns the simulated time the snapshot was taken at.
func (st *SystemState) Cycle() uint64 { return uint64(st.Engine.Now) }

// BoundaryFn is called at every checkpoint boundary of a run. State
// capture is lazy: the (expensive) flattening of the machine happens
// only if the callback asks for it by calling capture. This is what
// preemption wants — polling "should I stop?" at each boundary costs
// nothing until the answer is yes, at which point capture() flattens
// the machine and the callback can return an error to abort the run
// with the snapshot in hand. Returning a non-nil error aborts the run.
type BoundaryFn func(capture func() (*SystemState, error)) error

// captureState flattens the whole machine into a SystemState. It fails
// when a task's workload generator is not checkpointable.
func (s *System) captureState(warmup, measure uint64, pastWarmup bool, warmSnap metrics.Snapshot) (*SystemState, error) {
	if s.observed {
		return nil, fmt.Errorf("core: cannot checkpoint with a trace or timeline attached")
	}
	kst, err := s.Kernel.State()
	if err != nil {
		return nil, err
	}
	st := &SystemState{
		Cfg:            s.Cfg,
		Mix:            s.Mix,
		FootprintScale: s.footprintScale,
		Warmup:         warmup,
		Measure:        measure,
		PastWarmup:     pastWarmup,
		Engine:         *s.Eng.SnapshotState(),
		Kernel:         kst,
	}
	if pastWarmup {
		st.WarmupSnap = warmSnap
	}
	for _, ch := range s.Chans {
		st.Chans = append(st.Chans, ch.State())
	}
	for _, c := range s.MCs {
		st.MCs = append(st.MCs, c.State())
	}
	for _, c := range s.Cores {
		st.Cores = append(st.Cores, c.State())
	}
	return st, nil
}

// Restore rebuilds a System from a checkpoint. The machine is
// reconstructed from the snapshot's own config and mix (opt may supply
// a cancellation context; its FootprintScale and Seed are overridden by
// the snapshot's). Call Resume on the result to continue the run.
func Restore(st *SystemState, opt Options) (*System, error) {
	opt.FootprintScale = st.FootprintScale
	opt.Seed = 0 // st.Cfg already carries the effective seed
	s, err := Build(st.Cfg, st.Mix, opt)
	if err != nil {
		return nil, err
	}
	if len(st.Chans) != len(s.Chans) || len(st.MCs) != len(s.MCs) || len(st.Cores) != len(s.Cores) {
		return nil, fmt.Errorf("core: snapshot geometry (%d chans, %d cores) does not match rebuilt system",
			len(st.Chans), len(st.Cores))
	}
	for i, chst := range st.Chans {
		s.Chans[i].SetState(chst)
	}
	for i, cst := range st.MCs {
		s.MCs[i].SetState(cst)
	}
	if err := s.Kernel.SetState(st.Kernel); err != nil {
		return nil, err
	}
	tasks := s.Kernel.Tasks()
	onEnd := s.Kernel.QuantumEndHandler()
	for i, cst := range st.Cores {
		var task cpu.Task
		if cst.TaskID >= 0 {
			if cst.TaskID >= len(tasks) {
				return nil, fmt.Errorf("core: snapshot core %d bound to unknown task %d", i, cst.TaskID)
			}
			task = tasks[cst.TaskID]
		}
		s.Cores[i].RestoreState(cst, task, onEnd)
	}
	// Engine state goes last: it discards the construction-time events
	// (first refresh ticks) and installs the snapshot's population.
	s.Eng.RestoreState(&st.Engine)
	s.restored = true
	s.resWarmup = st.Warmup
	s.resMeasure = st.Measure
	s.pastWarmup = st.PastWarmup
	s.warmSnap = st.WarmupSnap
	return s, nil
}

// RunCheckpointed is Run with checkpoint boundaries: every `every`
// cycles of simulated time fn is called (see BoundaryFn). every == 0 or
// fn == nil degrades to plain Run. Boundaries split the engine's run
// into legs, which does not perturb execution: the report is
// byte-identical to an uncheckpointed run of the same cell.
//
// This is the error boundary of the simulation: typed sim.Fault values
// unwinding out of the event loop (out-of-memory demand paging and
// past-scheduled events) and a cancelled Options.Ctx are
// converted into returned errors tagged with the cell's identity, so a
// faulting cell degrades into a failed run the sweep pipeline can
// quarantine. Panics with non-Fault values are genuine programmer
// invariants and propagate.
func (s *System) RunCheckpointed(warmup, measure, every uint64, fn BoundaryFn) (*Report, error) {
	return s.run(false, warmup, measure, every, fn)
}

// Resume continues a restored system to the end of its original run,
// with checkpoint boundaries as in RunCheckpointed (pass 0, nil for
// none). The returned report is byte-identical to the one the
// uninterrupted original run would have produced.
func (s *System) Resume(every uint64, fn BoundaryFn) (*Report, error) {
	return s.run(true, s.resWarmup, s.resMeasure, every, fn)
}

// run is the one run entry behind RunCheckpointed and Resume.
func (s *System) run(resume bool, warmup, measure, every uint64, fn BoundaryFn) (rep *Report, err error) {
	switch {
	case s.started:
		return nil, fmt.Errorf("core: system already run")
	case s.restored && !resume:
		return nil, fmt.Errorf("core: restored system must Resume, not Run")
	case resume && !s.restored:
		return nil, fmt.Errorf("core: Resume requires a system built by Restore")
	case every > 0 && fn != nil && s.observed:
		return nil, fmt.Errorf("core: cannot checkpoint with a trace or timeline attached")
	}
	s.started = true
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(sim.Fault)
			if !ok {
				panic(p)
			}
			rep, err = nil, s.cellErr(f)
		}
	}()
	if !resume {
		// A restored event population already contains the in-flight
		// dispatch chain.
		s.Kernel.Start()
	}
	return s.drive(warmup, measure, every, fn)
}

// cellErr tags err with the cell's identity and the current cycle.
func (s *System) cellErr(err error) error {
	return fmt.Errorf("core: %s/%s/%s at cycle %d: %w",
		s.Mix.Name, s.Cfg.Mem.Density, s.Cfg.Refresh.Policy, s.Eng.Now(), err)
}

// drive advances the engine from its current time to warmup+measure in
// legs, pausing at the warmup boundary (registry snapshot), at every
// checkpoint boundary (fn), and — when Options.Ctx is set — at least
// every cancelCheckCycles to poll the context. The leg structure is
// invisible to the simulation: RunUntil(a); RunUntil(b) executes the
// identical event sequence as RunUntil(b).
func (s *System) drive(warmup, measure, every uint64, fn BoundaryFn) (*Report, error) {
	total := warmup + measure
	snap := s.warmSnap
	havePast := s.pastWarmup
	if !havePast && uint64(s.Eng.Now()) >= warmup {
		// Already at (or past) the warmup boundary with no snapshot —
		// the warmup == 0 case. Drain due events exactly as a single
		// RunUntil(warmup) would, then snapshot.
		s.Eng.RunUntil(sim.Time(warmup))
		snap = s.snapshot()
		havePast = true
	}
	for {
		now := uint64(s.Eng.Now())
		if now >= total {
			break
		}
		next := total
		if !havePast && warmup > now && warmup < next {
			next = warmup
		}
		if every > 0 && fn != nil {
			if nc := (now/every + 1) * every; nc < next {
				next = nc
			}
		}
		if s.ctx != nil {
			if nc := (now/cancelCheckCycles + 1) * cancelCheckCycles; nc < next {
				next = nc
			}
		}
		s.Eng.RunUntil(sim.Time(next))
		if !havePast && next >= warmup {
			snap = s.snapshot()
			havePast = true
		}
		if next == total {
			break
		}
		if every > 0 && fn != nil && next%every == 0 {
			capture := func() (*SystemState, error) {
				return s.captureState(warmup, measure, havePast, snap)
			}
			if err := fn(capture); err != nil {
				return nil, err
			}
		}
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return nil, s.cellErr(err)
			}
		}
	}
	return s.report(snap, measure), nil
}
