package refresh

import (
	"fmt"

	"refsched/internal/sim"
)

// RetentionBins describes a synthetic retention-time profile: the
// fraction of rows whose weakest cell retains data for only one, two,
// or four base retention windows. RAIDR's measured 32 GB profile has a
// tiny 64 ms bin, a small 128 ms bin, and everything else safe at
// 256 ms.
type RetentionBins struct {
	OneWindow  float64 // must be refreshed every tREFW
	TwoWindow  float64 // every 2×tREFW
	FourWindow float64 // every 4×tREFW
}

// DefaultRetentionBins reproduces RAIDR's reported profile shape,
// yielding ≈75% fewer refreshes than refreshing every row each window.
func DefaultRetentionBins() RetentionBins {
	return RetentionBins{OneWindow: 0.001, TwoWindow: 0.01, FourWindow: 0.989}
}

// RefreshRateFactor returns the fraction of baseline refresh commands
// the profile requires.
func (b RetentionBins) RefreshRateFactor() float64 {
	return b.OneWindow + b.TwoWindow/2 + b.FourWindow/4
}

// Validate rejects profiles that are not a plausible row partition:
// negative fractions, fractions summing past 1, or a profile whose
// refresh-rate factor is not in (0, 1] — a non-positive factor would
// silently disable refresh entirely (the decimation accumulator never
// fires), which is a misconfiguration, not a policy.
func (b RetentionBins) Validate() error {
	if b.OneWindow < 0 || b.TwoWindow < 0 || b.FourWindow < 0 {
		return fmt.Errorf("refresh: retention bins must be non-negative, got %+v", b)
	}
	if sum := b.OneWindow + b.TwoWindow + b.FourWindow; sum > 1+1e-9 {
		return fmt.Errorf("refresh: retention bins sum to %g > 1", sum)
	}
	if f := b.RefreshRateFactor(); f <= 0 || f > 1 {
		return fmt.Errorf("refresh: retention profile requires refresh-rate factor in (0,1], got %g", f)
	}
	return nil
}

// RAIDR is retention-aware intelligent DRAM refresh (Liu et al., ISCA
// 2012): rows are binned by profiled retention time and refreshed at
// their own rate instead of the worst-case rate, eliminating most
// refresh activity. We model the profile synthetically (the paper this
// repository reproduces argues that obtaining a *reliable* profile is
// the technique's weakness — retention times drift with temperature and
// time — so the profile here is an optimistic input).
//
// Mechanically it is round-robin per-bank refresh whose command stream
// is decimated to the profile's required rate using a deterministic
// accumulator.
type RAIDR struct {
	*PerBankRR
	bins   RetentionBins
	factor float64
}

// NewRAIDR builds the policy with the given (synthetic) profile; zero
// bins select DefaultRetentionBins. A non-zero profile that fails
// Validate is a configuration error reported at construction.
func NewRAIDR(g Geometry, bins RetentionBins) (*RAIDR, error) {
	if bins == (RetentionBins{}) {
		bins = DefaultRetentionBins()
	}
	if err := bins.Validate(); err != nil {
		return nil, err
	}
	return &RAIDR{PerBankRR: NewPerBankRR(g), bins: bins, factor: bins.RefreshRateFactor()}, nil
}

// Next implements Scheduler: issue commands at factor × the baseline
// per-bank rate, rotating banks.
func (r *RAIDR) Next(now sim.Time, q QueueView, st *State) Target {
	st.Acc += r.factor
	if st.Acc < 1 {
		return Target{Skip: true}
	}
	st.Acc--
	return r.PerBankRR.Next(now, q, st)
}
