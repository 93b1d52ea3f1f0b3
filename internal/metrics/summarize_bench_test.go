package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// benchSamples draws n exponentially distributed latencies (ms).
func benchSamples(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 5
	}
	return xs
}

// TestSummarizeLatenciesMatchesPercentile pins the sort-once fast path
// to Percentile's documented standalone semantics.
func TestSummarizeLatenciesMatchesPercentile(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 4096} {
		xs := benchSamples(n)
		got := SummarizeLatencies(xs)
		want := LatencySummary{
			P50: Percentile(xs, 50),
			P95: Percentile(xs, 95),
			P99: Percentile(xs, 99),
		}
		if got != want {
			t.Errorf("n=%d: SummarizeLatencies = %+v, want %+v", n, got, want)
		}
	}
	empty := SummarizeLatencies(nil)
	if !math.IsNaN(empty.P50) || !math.IsNaN(empty.P95) || !math.IsNaN(empty.P99) {
		t.Errorf("empty input: got %+v, want NaN triple", empty)
	}
}

// BenchmarkSummarizeLatencies measures the shipping sort-once triple.
func BenchmarkSummarizeLatencies(b *testing.B) {
	xs := benchSamples(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SummarizeLatencies(xs)
	}
}

// BenchmarkSummarizeLatenciesTripleSort measures the replaced
// implementation — three independent Percentile calls, each paying its
// own copy and sort — as the comparison baseline.
func BenchmarkSummarizeLatenciesTripleSort(b *testing.B) {
	xs := benchSamples(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LatencySummary{
			P50: Percentile(xs, 50),
			P95: Percentile(xs, 95),
			P99: Percentile(xs, 99),
		}
	}
}
