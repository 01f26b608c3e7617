package refresh

import "testing"

func TestRetentionBinsValidate(t *testing.T) {
	ok := []RetentionBins{
		DefaultRetentionBins(),
		{OneWindow: 1},
		{FourWindow: 1},
		{OneWindow: 0.5, TwoWindow: 0.5},
	}
	for _, b := range ok {
		if err := b.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", b, err)
		}
	}
	bad := []RetentionBins{
		{OneWindow: -0.1, FourWindow: 1},  // negative fraction
		{OneWindow: 0.8, TwoWindow: 0.8},  // sums past 1
		{OneWindow: 0, TwoWindow: -1e-12}, // factor <= 0
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", b)
		}
	}
}

func TestNewRAIDRRejectsInvalidBins(t *testing.T) {
	g := geo(t, 64)
	if _, err := NewRAIDR(g, RetentionBins{OneWindow: -0.5, FourWindow: 1}); err == nil {
		t.Fatal("NewRAIDR accepted a negative retention bin")
	}
	// Zero-value bins take the documented default path.
	r, err := NewRAIDR(g, RetentionBins{})
	if err != nil {
		t.Fatal(err)
	}
	if r.bins != DefaultRetentionBins() {
		t.Fatalf("zero bins resolved to %+v, want default profile", r.bins)
	}
}

func TestNewConstructsRAIDRWithDefaultProfile(t *testing.T) {
	g := geo(t, 64)
	s, _, err := New("raidr", g)
	if err != nil {
		t.Fatal(err)
	}
	if s.(*RAIDR).bins != DefaultRetentionBins() {
		t.Fatalf("refresh.New built RAIDR with %+v, want default profile", s.(*RAIDR).bins)
	}
}
