package refresh

// Stats counts the decisions one channel's refresh policy hands the
// memory controller, classified by the shape of the returned Target.
// The controller observes every Next result into its Stats instance, so
// the counters are uniform across all policies (including adaptive ones
// that switch shapes mid-run); a policy counts only what the Target
// cannot show (KeptCounters). Registered on the metrics registry under
// mc[i].refresh.*.
type Stats struct {
	// Decisions counts Next calls (one per refresh interval).
	Decisions uint64
	// Skips counts intervals where the policy issued nothing.
	Skips uint64
	// AllBankCommands / PerBankCommands / SubarrayCommands classify
	// issued refreshes by granularity.
	AllBankCommands  uint64
	PerBankCommands  uint64
	SubarrayCommands uint64
	// RowsScheduled accumulates Target.Rows over issued commands (rows
	// per affected bank; an all-bank command refreshes this many rows
	// in every bank of the rank).
	RowsScheduled uint64
}

// Observe records one policy decision.
func (s *Stats) Observe(t Target) {
	s.Decisions++
	switch {
	case t.Skip:
		s.Skips++
	case t.AllBank:
		s.AllBankCommands++
		s.RowsScheduled += t.Rows
	case t.SubarrayLevel:
		s.SubarrayCommands++
		s.RowsScheduled += t.Rows
	default:
		s.PerBankCommands++
		s.RowsScheduled += t.Rows
	}
}
