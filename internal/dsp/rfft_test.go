package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// refHalfSpectrum computes the first n/2 bins of the DFT of frame through
// the full complex FFT — the reference the real-input plan must match.
func refHalfSpectrum(t testing.TB, frame []float64) []complex128 {
	t.Helper()
	plan, err := NewFFTPlan(len(frame))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]complex128, len(frame))
	for i, v := range frame {
		buf[i] = complex(v, 0)
	}
	if err := plan.Forward(buf); err != nil {
		t.Fatal(err)
	}
	return buf[:len(frame)/2]
}

// halfSpectrum runs frame through plan under a rectangular window (a
// multiply by exactly 1, so the frame enters the transform unchanged)
// and unpacks every bin of the non-negative half-spectrum.
func halfSpectrum(t testing.TB, plan *RFFTPlan, frame []float64) []complex128 {
	t.Helper()
	ones := make([]float64, len(frame))
	for i := range ones {
		ones[i] = 1
	}
	if err := plan.transformHalf(frame, ones); err != nil {
		t.Fatal(err)
	}
	out := make([]complex128, plan.Size()/2)
	for k := range out {
		out[k] = plan.unpackBin(k)
	}
	return out
}

// diffTol is the differential-harness bound: per-bin agreement to 1e-9
// relative (plus 1e-9 absolute floor for near-zero bins).
const diffTol = 1e-9

// withinTol reports |a-b| <= diffTol·(1+max(|a|,|b|)).
func withinTol(a, b float64) bool {
	m := math.Abs(a)
	if mb := math.Abs(b); mb > m {
		m = mb
	}
	return math.Abs(a-b) <= diffTol*(1+m)
}

func TestRFFTMatchesFullFFT(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 256, 1024, 8192} {
		rng := rand.New(rand.NewSource(int64(n)))
		frame := make([]float64, n)
		for i := range frame {
			frame[i] = 2*rng.Float64() - 1
		}
		plan, err := NewRFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		got := halfSpectrum(t, plan, frame)
		want := refHalfSpectrum(t, frame)
		for k := range want {
			if !withinTol(real(got[k]), real(want[k])) || !withinTol(imag(got[k]), imag(want[k])) {
				t.Fatalf("n=%d bin %d: rfft %v, reference %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestRFFTKnownSpectra(t *testing.T) {
	const n = 64
	plan, err := NewRFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	// Constant input: all energy in DC.
	frame := make([]float64, n)
	for i := range frame {
		frame[i] = 1
	}
	dst := halfSpectrum(t, plan, frame)
	if !withinTol(real(dst[0]), float64(n)) || !withinTol(imag(dst[0]), 0) {
		t.Errorf("DC bin = %v, want %d", dst[0], n)
	}
	for k := 1; k < n/2; k++ {
		if !withinTol(real(dst[k]), 0) || !withinTol(imag(dst[k]), 0) {
			t.Errorf("bin %d = %v, want 0", k, dst[k])
		}
	}

	// Pure cosine at bin 5: X[5] = n/2, everything else ~0.
	for i := range frame {
		frame[i] = math.Cos(2 * math.Pi * 5 * float64(i) / n)
	}
	dst = halfSpectrum(t, plan, frame)
	if !withinTol(real(dst[5]), float64(n)/2) || !withinTol(imag(dst[5]), 0) {
		t.Errorf("tone bin = %v, want %g", dst[5], float64(n)/2)
	}
}

func TestRFFTValidation(t *testing.T) {
	if _, err := NewRFFTPlan(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewRFFTPlan(1); err == nil {
		t.Error("size 1 accepted (no half transform exists)")
	}
	if _, err := NewRFFTPlan(48); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	plan, err := NewRFFTPlan(16)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Size() != 16 {
		t.Errorf("Size() = %d, want 16", plan.Size())
	}
	if err := plan.transformHalf(make([]float64, 8), make([]float64, 16)); err == nil {
		t.Error("short frame accepted")
	}
	if err := plan.transformHalf(make([]float64, 16), make([]float64, 8)); err == nil {
		t.Error("short window accepted")
	}
}

// TestRFFTVectorKernelMatchesScalar pins the AVX stage kernel against the
// pure-Go loop: both perform the same flops in the same order, so band
// magnitudes must agree exactly (bit-for-bit), and spectra may differ at
// most in the sign of zeros, which withinTol absorbs.
func TestRFFTVectorKernelMatchesScalar(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: the scalar loop is the only kernel")
	}
	for _, n := range []int{8, 16, 64, 128, 512, 2048, 8192} {
		vec, err := NewRFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewRFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if !vec.vec {
			t.Fatal("plan did not enable the vector kernel despite AVX support")
		}
		scalar.vec = false
		rng := rand.New(rand.NewSource(int64(n) * 7))
		frame := make([]float64, n)
		for i := range frame {
			frame[i] = 2*rng.Float64() - 1
		}
		gotSpec := halfSpectrum(t, vec, frame)
		wantSpec := halfSpectrum(t, scalar, frame)
		for k := range wantSpec {
			if !withinTol(real(gotSpec[k]), real(wantSpec[k])) || !withinTol(imag(gotSpec[k]), imag(wantSpec[k])) {
				t.Fatalf("n=%d bin %d: vector %v, scalar %v", n, k, gotSpec[k], wantSpec[k])
			}
		}
		// Windowed band magnitudes, computed exactly as STFT columns are.
		win, err := NewWindow(WindowHanning, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := vec.transformHalf(frame, win.coeffs); err != nil {
			t.Fatal(err)
		}
		if err := scalar.transformHalf(frame, win.coeffs); err != nil {
			t.Fatal(err)
		}
		for k := n / 4; k < n/2; k++ {
			g, w := vec.unpackBin(k), scalar.unpackBin(k)
			got := math.Sqrt(real(g)*real(g) + imag(g)*imag(g))
			want := math.Sqrt(real(w)*real(w) + imag(w)*imag(w))
			if got != want {
				t.Fatalf("n=%d bin %d: vector magnitude %.17g, scalar %.17g (must be bit-identical)",
					n, k, got, want)
			}
		}
	}
}

// TestRFFTDigitReversalRoundTrip pins the digit-reversal table: it must
// be a permutation of [0, n/2).
func TestRFFTDigitReversalRoundTrip(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 64, 128, 8192} {
		plan, err := NewRFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n/2)
		for _, pos := range plan.rev {
			if pos < 0 || pos >= n/2 || seen[pos] {
				t.Fatalf("n=%d: rev is not a permutation: %v", n, plan.rev)
			}
			seen[pos] = true
		}
	}
}
