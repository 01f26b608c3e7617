package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{4, 3, 2, 1}, 0, 1},
		{[]float64{4, 3, 2, 1}, 100, 4},
		{[]float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 90, 90},
		{[]float64{0, 10}, 90, 9},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest percentile that leaves at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50},
		{1, 50},
		{80, 50},
		{99, 50},
		{100, 90},
		{232, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestHostSpeedNormalisation(t *testing.T) {
	for _, tc := range []struct {
		speed             hostSpeed
		rawTime, wantTime float64
		rawRate, wantRate float64
	}{
		// The baseline machine: nothing changes.
		{1, 10, 10, 20, 20},
		// A host at half speed takes twice as long and does half as much
		// per second as the baseline would.
		{0.5, 10, 5, 20, 40},
		// A host twice as fast.
		{2, 10, 20, 20, 10},
	} {
		if got := tc.speed.time(tc.rawTime); math.Abs(got-tc.wantTime) > 1e-9 {
			t.Errorf("speed %v: time(%v) = %v, want %v", tc.speed, tc.rawTime, got, tc.wantTime)
		}
		if got := tc.speed.rate(tc.rawRate); math.Abs(got-tc.wantRate) > 1e-9 {
			t.Errorf("speed %v: rate(%v) = %v, want %v", tc.speed, tc.rawRate, got, tc.wantRate)
		}
	}
}
