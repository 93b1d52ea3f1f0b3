package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceColumns computes a spectrogram the paper's naive way — window
// each frame with Window.Apply, run the full N-point complex FFTPlan, and
// crop the band with Magnitudes — the ground truth of the differential
// harness. cfg.Window must be set; a zero band means the full half
// [0, N/2), as in NewSTFT.
func referenceColumns(t testing.TB, cfg STFTConfig, signal []float64) *Spectrogram {
	t.Helper()
	n := cfg.FFTSize
	low, high := cfg.LowBin, cfg.HighBin
	if low == 0 && high == 0 {
		high = n / 2
	}
	win, err := NewWindow(cfg.Window, n)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spectrogram{
		Data:       make([][]float64, (len(signal)-n)/cfg.HopSize+1),
		SampleRate: cfg.SampleRate,
		FFTSize:    n,
		HopSize:    cfg.HopSize,
		BinLow:     low,
	}
	framed := make([]float64, n)
	for f := range spec.Data {
		start := f * cfg.HopSize
		if _, err := win.Apply(signal[start:start+n], framed); err != nil {
			t.Fatal(err)
		}
		full, err := plan.ForwardReal(framed)
		if err != nil {
			t.Fatal(err)
		}
		spec.Data[f] = Magnitudes(full[low:high], nil)
	}
	return spec
}

// randomSignal draws a deterministic pseudo-random signal in [-1, 1].
func randomSignal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = 2*rng.Float64() - 1
	}
	return sig
}

// TestBandEngineMatchesReference is the differential equivalence suite:
// randomized signals × all window kinds × band edges (degenerate 1-bin
// bands, DC and Nyquist edges, the full half-spectrum, the paper's
// default band), asserting every STFT column matches the full-FFT
// reference per bin within the 1e-9 harness tolerance.
func TestBandEngineMatchesReference(t *testing.T) {
	type bandCase struct {
		name      string
		low, high func(n int) int
	}
	bands := []bandCase{
		{"default-paper-band", func(n int) int { return n * 3628 / 8192 }, func(n int) int { return n*3978/8192 + 1 }},
		{"single-bin-dc", func(n int) int { return 0 }, func(n int) int { return 1 }},
		{"single-bin-mid", func(n int) int { return n / 4 }, func(n int) int { return n/4 + 1 }},
		{"single-bin-top", func(n int) int { return n/2 - 1 }, func(n int) int { return n / 2 }},
		{"dc-edge", func(n int) int { return 0 }, func(n int) int { return 9 }},
		{"nyquist-edge", func(n int) int { return n/2 - 9 }, func(n int) int { return n / 2 }},
		{"full-half-spectrum", func(n int) int { return 0 }, func(n int) int { return n / 2 }},
	}
	windows := []WindowKind{WindowHanning, WindowHamming, WindowRectangular, WindowBlackman}
	sizes := []int{64, 1024}
	for _, n := range sizes {
		for _, bc := range bands {
			for _, win := range windows {
				cfg := STFTConfig{
					SampleRate: 44100,
					FFTSize:    n,
					HopSize:    n / 4,
					Window:     win,
					LowBin:     bc.low(n),
					HighBin:    bc.high(n),
				}
				for seed := int64(1); seed <= 3; seed++ {
					sig := randomSignal(seed*int64(n), 3*n)
					want := referenceColumns(t, cfg, sig)
					st, err := NewSTFT(cfg)
					if err != nil {
						t.Fatalf("n=%d band=%s win=%v: %v", n, bc.name, win, err)
					}
					got, err := st.Compute(sig)
					if err != nil {
						t.Fatalf("n=%d band=%s win=%v: %v", n, bc.name, win, err)
					}
					assertSpectrogramsClose(t, got, want,
						"n=%d band=%s win=%v seed=%d", n, bc.name, win, seed)
				}
			}
		}
	}
}

// TestBandEngineMatchesReferencePaperConfig pins the differential bound
// at the exact serving configuration (8192/1024, 351-bin band).
func TestBandEngineMatchesReferencePaperConfig(t *testing.T) {
	cfg := DefaultSTFTConfig()
	sig := randomSignal(42, 4*cfg.FFTSize)
	// Add a strong in-band tone so the band isn't just noise floor.
	for i := range sig {
		sig[i] += 5 * math.Sin(2*math.Pi*20000*float64(i)/cfg.SampleRate)
	}
	want := referenceColumns(t, cfg, sig)
	st, err := NewSTFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Compute(sig)
	if err != nil {
		t.Fatal(err)
	}
	assertSpectrogramsClose(t, got, want, "paper config")
}

func assertSpectrogramsClose(t *testing.T, got, want *Spectrogram, format string, args ...any) {
	t.Helper()
	if got.Frames() != want.Frames() || got.Bins() != want.Bins() || got.BinLow != want.BinLow {
		t.Fatalf("%s: shape %dx%d@%d, want %dx%d@%d",
			fmtArgs(format, args), got.Frames(), got.Bins(), got.BinLow, want.Frames(), want.Bins(), want.BinLow)
	}
	for f := range want.Data {
		for b := range want.Data[f] {
			if !withinTol(got.Data[f][b], want.Data[f][b]) {
				t.Fatalf("%s: frame %d bin %d: got %.17g, reference %.17g (Δ=%g)",
					fmtArgs(format, args), f, b, got.Data[f][b], want.Data[f][b],
					math.Abs(got.Data[f][b]-want.Data[f][b]))
			}
		}
	}
}

func fmtArgs(format string, args []any) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
}
