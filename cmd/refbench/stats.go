package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0–100) of xs, interpolating
// linearly between the two nearest ranks; 0 when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile is the highest percentile worth reporting for n
// samples: the highest of 99.9, 99 and 90 that leaves at least ten
// samples beyond it, else the median.
func tailPercentile(n int) float64 {
	// Per-mille, so the ten-sample test is exact integer arithmetic.
	for _, pm := range []int{999, 990, 900} {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// The reference loops' speeds on the 2-vCPU x86-64 container the
// committed baselines were measured on: xorshift iterations per second,
// and bytes of fresh anonymous memory faulted in per second.
const (
	nominalRefRate   = 4.6e8
	nominalFaultRate = 2e9
)

// refSink keeps the xorshift loop's result live so the compiler cannot
// delete the loop.
var refSink uint64

// measureHostSpeed runs two code-independent reference loops for about
// d each and returns the host's speed relative to the baseline machine:
// the geometric mean of their median chunk rates, each as a fraction of
// its nominal rate. The simulator's host time is partly user-space
// compute, which the xorshift loop that cmd/experiments also uses
// tracks, and partly the kernel faulting in the memory every cell
// allocates, which the page-fault loop tracks. In three series of fig10
// and fig3 runs on a shared 2-vCPU host, normalising by both left less
// of the spread of their wall times than either alone: 4–11% of the
// median against 8–14%.
func measureHostSpeed(d time.Duration) (hostSpeed, error) {
	fault, err := faultRate(d)
	if err != nil {
		return 0, err
	}
	return hostSpeed(math.Sqrt(xorshiftRate(d) / nominalRefRate * fault / nominalFaultRate)), nil
}

// xorshiftRate is the median rate of 2^20-iteration chunks of a pure
// integer loop, in iterations per second.
func xorshiftRate(d time.Duration) float64 {
	const chunk = 1 << 20
	x := uint64(0x9e3779b97f4a7c15)
	var rates []float64
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < d {
		t0 := time.Now()
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		rates = append(rates, chunk/time.Since(t0).Seconds())
	}
	refSink = x
	return percentile(rates, 50)
}

// faultRate is the median rate, in bytes per second, at which the
// kernel hands out fresh memory: map 16 MiB, touch every page, unmap.
func faultRate(d time.Duration) (float64, error) {
	const size, page = 16 << 20, 4096
	var rates []float64
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < d {
		t0 := time.Now()
		b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return 0, fmt.Errorf("reference loop: mmap: %w", err)
		}
		for i := 0; i < size; i += page {
			b[i] = 1
		}
		if err := syscall.Munmap(b); err != nil {
			return 0, fmt.Errorf("reference loop: munmap: %w", err)
		}
		rates = append(rates, size/time.Since(t0).Seconds())
	}
	return percentile(rates, 50), nil
}

// hostSpeed is the host's measured speed as a fraction of the baseline
// machine's. It converts raw host times and rates into what they would
// have been on the baseline machine, which cancels most of the drift a
// shared host shows between processes.
type hostSpeed float64

// time normalises a raw duration: a host running at half speed took
// twice as long, so the baseline machine would have taken half.
func (s hostSpeed) time(raw float64) float64 { return raw * float64(s) }

// rate normalises a raw rate, the inverse of time.
func (s hostSpeed) rate(raw float64) float64 { return raw / float64(s) }
