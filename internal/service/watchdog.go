package service

import (
	"fmt"
	"time"
)

// resilienceTick is how often the resilience loop runs: a brownout
// re-evaluation, a tenant-state sweep and a watchdog scan.
const resilienceTick = 100 * time.Millisecond

// WatchdogConfig tunes the stalled-job watchdog. The zero value selects
// the documented default.
type WatchdogConfig struct {
	// Stall is how long a running job's progress signature (finished
	// cells, their engine events, and checkpoint boundaries crossed) may
	// stay frozen before the job is killed and its in-flight cells
	// quarantined (default 30s). An exact cell crosses a boundary every
	// four timeslices, so the bound needs to exceed the longest gap
	// between boundaries, not the longest cell.
	Stall time.Duration
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Stall <= 0 {
		c.Stall = 30 * time.Second
	}
	return c
}

// watchdogObservation is one running job's last-seen progress.
type watchdogObservation struct {
	sig  uint64
	seen time.Time
}

// resilienceLoop is the daemon's single background control goroutine:
// each tick it re-evaluates brownout against the live queue depth (so
// the mode disengages even when the overload ends and no requests
// arrive to trigger an enqueue-time evaluation), drops tenant state a
// fresh one would equal, and scans running jobs for stalled progress.
// It exits when loopStop closes.
func (s *Server) resilienceLoop() {
	defer close(s.loopDone)
	t := time.NewTicker(resilienceTick)
	defer t.Stop()
	seen := map[*job]watchdogObservation{}
	for {
		select {
		case <-s.loopStop:
			return
		case now := <-t.C:
			s.brown.evaluate(s.queue.len(), s.cfg.QueueDepth)
			s.tenants.prune()
			s.watchdogScan(seen, now)
		}
	}
}

// watchdogScan compares each running job's progress signature against
// its last observation and kills any job that has gone the stall bound
// without advancing. seen persists between scans and is pruned of jobs
// that stopped running.
func (s *Server) watchdogScan(seen map[*job]watchdogObservation, now time.Time) {
	s.watchdogScans.Add(1)

	s.jobsMu.Lock()
	running := make([]*job, 0, len(s.active))
	for _, j := range s.active {
		running = append(running, j)
	}
	s.jobsMu.Unlock()

	live := map[*job]bool{}
	for _, j := range running {
		sig, ok := j.progress()
		if !ok {
			continue // queued or already terminal
		}
		live[j] = true
		obs, known := seen[j]
		if !known || obs.sig != sig {
			seen[j] = watchdogObservation{sig: sig, seen: now}
			continue
		}
		if stalled := now.Sub(obs.seen); stalled >= s.cfg.Watchdog.Stall {
			err := fmt.Errorf("service: watchdog killed job %s: no engine progress for %s (stall bound %s)",
				j.id, stalled.Round(time.Millisecond), s.cfg.Watchdog.Stall)
			if j.kill(err) {
				s.watchdogKills.Add(1)
				j.tl.Instant(tlPidService, tlTidJob, "watchdog-kill", j.sinceUS())
				s.log.Error("watchdog kill", "job", j.id, "figure", j.figure,
					"stalled", stalled.Round(time.Millisecond).String())
			}
			delete(seen, j)
		}
	}
	for j := range seen {
		if !live[j] {
			delete(seen, j)
		}
	}
}
