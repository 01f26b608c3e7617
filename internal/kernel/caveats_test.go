package kernel

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/sim"
)

// TestSleepingTasksWakeAndRun: a task with a sleep pattern loses CPU
// while asleep but keeps running afterwards, and sleep episodes are
// accounted.
func TestSleepingTasksWakeAndRun(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	cfg.OS.Scheduler = config.SchedCFS
	cfg.OS.CtxSwitchCycles = 0
	k, eng := rig(t, cfg, 1, nil)
	addTasks(k, 2)
	k.AssignMasks()
	sleeper := k.Tasks()[0]
	sleeper.SleepEveryQuanta = 2
	sleeper.SleepForCycles = cfg.Timeslice() * 3
	k.Start()
	eng.RunUntil(sim.Time(cfg.Timeslice() * 40))

	if k.Stats.SleepEpisodes == 0 {
		t.Fatal("no sleep episodes recorded")
	}
	if sleeper.Sleeps == 0 {
		t.Fatal("sleeper never woke")
	}
	q0 := k.Tasks()[0].Stats().Quanta
	q1 := k.Tasks()[1].Stats().Quanta
	if q0 == 0 {
		t.Fatal("sleeper starved entirely")
	}
	if q0 >= q1 {
		t.Fatalf("sleeper ran %d quanta vs awake task's %d; sleeping should cost CPU", q0, q1)
	}
}

// TestHighPriorityTaskDominates: a nice -10 task receives most of the
// CPU under CFS (the Section 5.4 priority caveat).
func TestHighPriorityTaskDominates(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	cfg.OS.Scheduler = config.SchedCFS
	cfg.OS.CtxSwitchCycles = 0
	k, eng := rig(t, cfg, 1, nil)
	addTasks(k, 2)
	k.AssignMasks()
	k.Tasks()[0].SetNice(-10)
	k.Start()
	eng.RunUntil(sim.Time(cfg.Timeslice() * 60))

	q0 := float64(k.Tasks()[0].Stats().Quanta)
	q1 := float64(k.Tasks()[1].Stats().Quanta)
	if q1 == 0 {
		t.Fatal("low-priority task starved completely (CFS must not starve)")
	}
	// nice -10 vs 0 is a ~9.3x weight ratio.
	if q0/q1 < 5 {
		t.Fatalf("priority ratio = %v (q0=%v q1=%v), want >> 1", q0/q1, q0, q1)
	}
}

// TestEtaFallbackWhenEligibleTasksSleep: with refresh awareness on and
// the only eligible tasks asleep, the scheduler falls back past η
// rather than idling (the fairness-threshold mechanism).
func TestEtaFallbackWhenEligibleTasksSleep(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	cfg.OS.Scheduler = config.SchedCFS
	cfg.OS.RefreshAware = true
	cfg.OS.Alloc = config.AllocSoftPartition
	cfg.OS.CtxSwitchCycles = 0
	k, eng := rig(t, cfg, 2, fixedPlanner{slot: cfg.Timeslice()})
	addTasks(k, 8)
	k.AssignMasks()
	// Make half the tasks sleep aggressively so eligible candidates are
	// often absent.
	for i, task := range k.Tasks() {
		if i%2 == 0 {
			task.SleepEveryQuanta = 1
			task.SleepForCycles = cfg.Timeslice() * 4
		}
	}
	k.Start()
	eng.RunUntil(sim.Time(cfg.Timeslice() * 64))

	st := k.Scheduler().Stats()
	if st.Picks == 0 {
		t.Fatal("nothing scheduled")
	}
	if st.FallbackPicks+st.BestEffortPicks == 0 {
		t.Fatal("η fallback never triggered despite sleeping eligible tasks")
	}
	// The system still made forward progress on every task.
	for _, task := range k.Tasks() {
		if task.Stats().Quanta == 0 {
			t.Fatalf("task %d never ran", task.ID())
		}
	}
}
