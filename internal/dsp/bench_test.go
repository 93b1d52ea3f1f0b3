package dsp

import (
	"math"
	"testing"
)

// benchSignal synthesizes a deterministic multi-tone test signal long
// enough for a realistic spectrogram (2 s at the paper's rate).
func benchSignal(n int) []float64 {
	sig := make([]float64, n)
	for i := range sig {
		t := float64(i) / 44100
		sig[i] = math.Sin(2*math.Pi*20000*t) + 0.3*math.Sin(2*math.Pi*19800*t) + 0.05*math.Sin(2*math.Pi*440*t)
	}
	return sig
}

// BenchmarkSTFTCompute measures the full spectrogram computation for the
// paper's default 8192/1024/351-bin configuration — the serving path's
// per-column work, two seconds of audio per op.
func BenchmarkSTFTCompute(b *testing.B) {
	sig := benchSignal(2 * 44100)
	b.Run("band", func(b *testing.B) {
		st, err := NewSTFT(DefaultSTFTConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Compute(sig); err != nil {
				b.Fatal(err)
			}
		}
	})
}
