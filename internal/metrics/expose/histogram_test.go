package expose

import (
	"math/rand"
	"testing"
)

// quantiles reads the p50/p95/p99 triple /statsz serves.
func quantiles(v HistView) [3]float64 {
	return [3]float64{v.Quantile(0.50), v.Quantile(0.95), v.Quantile(0.99)}
}

func observeAll(t *testing.T, bounds, xs []float64) *Histogram {
	t.Helper()
	h, err := NewHistogram(bounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		h.Observe(x)
	}
	return h
}

func TestHistViewQuantile(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64
		obs    []float64
		q      []float64
		want   []float64
	}{
		// No observations: 0, never NaN, so the estimate stays
		// JSON-encodable.
		{"empty", []float64{1, 2, 4}, nil, []float64{0.5, 0.99, 1}, []float64{0, 0, 0}},
		// One bucket: linear from 0 (the first bucket's lower edge) to
		// its bound.
		{"single bucket", []float64{10}, []float64{2, 4, 6, 8}, []float64{0.25, 0.5, 1}, []float64{2.5, 5, 10}},
		// Interpolation inside the bucket that holds the rank.
		{"interpolates", []float64{1, 2, 4}, []float64{0.5, 1.5, 1.5, 3}, []float64{0.5, 0.75, 1}, []float64{1.5, 2, 4}},
		// A rank in the +Inf bucket reports the largest finite bound.
		{"inf tail clamped", []float64{1, 2}, []float64{0.5, 5, 5, 5}, []float64{0.25, 0.5, 0.99}, []float64{1, 2, 2}},
		{"q not positive", []float64{1, 2}, []float64{1.5}, []float64{0, -1}, []float64{0, 0}},
		{"nonpositive first bound", []float64{-1, 1}, []float64{-2}, []float64{0.5}, []float64{-1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := observeAll(t, c.bounds, c.obs).View()
			for i, q := range c.q {
				if got := v.Quantile(q); got != c.want[i] {
					t.Errorf("Quantile(%g) = %g, want %g", q, got, c.want[i])
				}
			}
		})
	}
}

// TestMergeViews drives the merge behind the /statsz quantiles: summing
// per-shard views must behave like one histogram that saw every
// observation.
func TestMergeViews(t *testing.T) {
	bounds := []float64{1, 2, 4, 8, 16, 32, 64, 128}
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		name   string
		groups [][]float64
		want   *[3]float64 // nil: only compare with the union
	}{
		{name: "all empty", groups: [][]float64{nil, {}, nil}, want: &[3]float64{}},
		{name: "no groups", groups: nil, want: &[3]float64{}},
		{name: "single sample in one shard", groups: [][]float64{nil, {3}, nil}, want: &[3]float64{3, 3.9, 3.98}},
		{name: "identical constant shards", groups: [][]float64{{3, 3, 3}, {3, 3}}, want: &[3]float64{3, 3.9, 3.98}},
		// One hot shard with 99 observations, one nearly idle with 1: the
		// merge must weight by count, not average per-shard estimates.
		{name: "skewed shard sizes match pooled percentiles", groups: [][]float64{seq(99), {100}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			views := make([]HistView, len(c.groups))
			var union []float64
			for i, g := range c.groups {
				views[i] = observeAll(t, bounds, g).View()
				union = append(union, g...)
			}
			merged := MergeViews(views...)
			one := observeAll(t, bounds, union).View()
			if merged.Count != one.Count || merged.Sum != one.Sum {
				t.Errorf("merged count/sum = %d/%g, union %d/%g", merged.Count, merged.Sum, one.Count, one.Sum)
			}
			if len(c.groups) > 0 {
				for i := range one.Cumulative {
					if merged.Cumulative[i] != one.Cumulative[i] {
						t.Errorf("bucket %d: merged %d, union %d", i, merged.Cumulative[i], one.Cumulative[i])
					}
				}
			}
			got := quantiles(merged)
			if want := quantiles(one); got != want {
				t.Errorf("merged quantiles %v, union %v", got, want)
			}
			if c.want != nil && got != *c.want {
				t.Errorf("merged quantiles %v, want %v", got, *c.want)
			}
		})
	}
}

// TestMergeViewsMonotone: merged estimates are ordered and stay inside
// the finite bucket range.
func TestMergeViewsMonotone(t *testing.T) {
	bounds, err := ExpBuckets(0.25, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		views := make([]HistView, 1+rng.Intn(4))
		for i := range views {
			xs := make([]float64, rng.Intn(40))
			for j := range xs {
				xs[j] = rng.ExpFloat64() * 20
			}
			views[i] = observeAll(t, bounds, xs).View()
		}
		q := quantiles(MergeViews(views...))
		if q[0] < 0 || q[0] > q[1] || q[1] > q[2] || q[2] > bounds[len(bounds)-1] {
			t.Fatalf("trial %d: quantiles %v not ordered within [0, %g]", trial, q, bounds[len(bounds)-1])
		}
	}
}

func TestMergeViewsRejectsMismatchedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MergeViews over different bucket layouts did not panic")
		}
	}()
	a, err := NewHistogram([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHistogram([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	MergeViews(a.View(), b.View())
}
