package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// rank is the 1-based nearest-rank index of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return max(1, min(r, n))
}

// tailOK reports whether n samples support quantile q: at least minTail
// samples lie beyond its nearest rank.
func tailOK(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minTail
}

// minSamples is the smallest sample count that supports quantile q.
func minSamples(q float64) int {
	n := 1
	for !tailOK(n, q) {
		n++
	}
	return n
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and warns about percentiles the
// sample cannot support.
type report map[string]metric

func (r report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r[name] = metric{Value: v, Unit: unit}
}

// pct reports quantile q of xs.
func (r report) pct(name, unit string, xs []float64, q float64) {
	r.set(name, unit, quantile(xs, q))
}

// warnTail notes on stderr a percentile that fewer than minTail samples
// lie beyond.
func warnTail(name string, n int, q float64) {
	if !tailOK(n, q) {
		fmt.Fprintf(os.Stderr, "perfbench: %s from %d samples; p%g needs %d\n", name, n, 100*q, minSamples(q))
	}
}

// usage is a process resource snapshot: CPU time from getrusage and the
// Go heap's cumulative allocation.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: totalAlloc(),
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
