package expose

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Histogram is a concurrent fixed-bucket histogram: per-bucket atomic
// counters plus an atomic count and sum, cheap enough to Observe on the
// serving hot path (one binary search and three atomic adds, no lock).
//
// The fields are individually atomic rather than jointly snapshotted,
// so a scrape racing an Observe may see the observation in the total
// count before its bucket counter — the rendered +Inf bucket (which is
// the total count) therefore always dominates the finite buckets and
// the exposition stays cumulative, at the cost of a transient
// one-observation skew between _count and _sum. That is the standard
// monitoring trade-off; exactness would need a lock on every Observe.
type Histogram struct {
	bounds []float64 // ascending finite upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// NewHistogram builds a histogram over the given upper bounds, which
// must be non-empty, finite and strictly ascending.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("expose: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("expose: bucket bound %d is %g; bounds must be finite (+Inf is implicit)", i, b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("expose: bucket bounds must be strictly ascending (bound %d: %g ≤ %g)",
				i, b, bounds[i-1])
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)),
	}
	return h, nil
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum and belong to no bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Total first: see the type comment — the scrape-visible +Inf bucket
	// renders from count, so count must never lag a bucket counter.
	h.count.Add(1)
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.bounds) {
		h.counts[i].Add(1)
	}
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistView is a point-in-time rendering view of a histogram: cumulative
// counts per finite bound (the +Inf bucket is Count).
type HistView struct {
	UpperBounds []float64
	Cumulative  []uint64
	Count       uint64
	Sum         float64
}

// View snapshots the histogram for rendering. Buckets are read before
// the total count — paired with Observe's count-first ordering, any
// bucket increment the view sees is covered by the count it reads, so
// the rendered +Inf bucket (Count) never undercuts a finite bucket.
func (h *Histogram) View() HistView {
	v := HistView{
		UpperBounds: h.bounds,
		Cumulative:  make([]uint64, len(h.bounds)),
	}
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		v.Cumulative[i] = c
	}
	v.Count = h.count.Load()
	v.Sum = math.Float64frombits(h.sum.Load())
	return v
}

// MergeViews sums views that share one bucket layout into a single view
// (the service-wide histogram of per-shard ones). It panics when the
// bounds differ, which is a wiring bug, not a runtime condition.
func MergeViews(views ...HistView) HistView {
	var m HistView
	for i, v := range views {
		if i == 0 {
			m.UpperBounds = v.UpperBounds
			m.Cumulative = make([]uint64, len(v.Cumulative))
		} else if !slices.Equal(m.UpperBounds, v.UpperBounds) {
			panic("expose: MergeViews over histograms with different bucket bounds")
		}
		for j, c := range v.Cumulative {
			m.Cumulative[j] += c
		}
		m.Count += v.Count
		m.Sum += v.Sum
	}
	return m
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the observations with
// Prometheus histogram_quantile semantics: find the bucket holding rank
// q×Count and interpolate linearly inside it, taking 0 as the lower edge
// of the first bucket. A rank that falls in the +Inf bucket returns the
// largest finite bound. An empty view, or q ≤ 0, returns 0, so the
// estimate is always finite and JSON-encodable.
func (v HistView) Quantile(q float64) float64 {
	if v.Count == 0 || q <= 0 {
		return 0
	}
	rank := q * float64(v.Count)
	b := sort.Search(len(v.Cumulative), func(i int) bool { return float64(v.Cumulative[i]) >= rank })
	if b == len(v.Cumulative) {
		return v.UpperBounds[len(v.UpperBounds)-1]
	}
	upper := v.UpperBounds[b]
	if b == 0 && upper <= 0 {
		return upper
	}
	var lower float64
	inBucket := float64(v.Cumulative[b])
	if b > 0 {
		lower = v.UpperBounds[b-1]
		inBucket -= float64(v.Cumulative[b-1])
		rank -= float64(v.Cumulative[b-1])
	}
	return lower + (upper-lower)*(rank/inBucket)
}
