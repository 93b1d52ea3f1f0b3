package dsp

import (
	"fmt"
	"math"
)

// RFFTPlan computes the non-negative half-spectrum of a real-valued frame
// using an N/2-point complex transform plus a post-twiddle unpacking pass,
// the classic real-input factorization: the even samples become the real
// parts and the odd samples the imaginary parts of an N/2-length complex
// sequence, one small transform runs, and each output bin is recovered
// from the conjugate-symmetric combination of two bins of that transform.
// Compared with embedding the real frame in a full N-point complex FFT
// this halves the butterfly count and skips the conjugate half entirely.
//
// The inner transform is a radix-4 decimation-in-frequency kernel over an
// interleaved complex plane, tuned for the per-hop serving path:
// natural-order input, digit-reversed output — the reversal
// permutation is never applied to the data; instead the unpacking pass
// reads through the index table, which costs O(B) lookups for a B-bin
// band instead of an O(N) reordering pass. Twiddles are laid out
// sequentially per stage so the inner loops stream them in order.
//
// A plan owns scratch state, so unlike FFTPlan it is not safe for
// concurrent use; create one per goroutine (the STFT does).
type RFFTPlan struct {
	n int // real frame length
	m int // n/2, the complex transform length
	// post[k] = e^{-2πik/n} for k in [0, n/2): the unpacking twiddles.
	post []complex128
	// rev maps a natural-order bin index of the half-size transform to
	// its position in the digit-reversed output of the DIF kernel.
	rev []int
	// stages holds per-stage sequential twiddle tables for the radix-4
	// passes; see newStageTwiddles for the layout.
	stages []stageTwiddles
	z      []complex128 // packed scratch plane, length m
	// vec routes eligible radix-4 stages through the AVX kernel. It is
	// hasAVX at construction; tests flip it to pin kernel equivalence.
	vec bool
}

// stageTwiddles holds the three twiddle factors of one radix-4 DIF stage
// of span L, interleaved per butterfly index i in [0, L/4):
// [w1r w1i w2r w2i w3r w3i]... with wp = e^{-2πi·p·i/L}. wv is the same
// table re-laid for the AVX kernel (see newStageTwiddlesVec), nil when
// the stage is too narrow to vectorize.
type stageTwiddles struct {
	span int
	w    []float64
	wv   []float64
}

// NewRFFTPlan builds a plan for real frames of length n. n must be a
// power of two and at least 2.
func NewRFFTPlan(n int) (*RFFTPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: RFFT size must be a power of two >= 2, got %d", n)
	}
	m := n / 2
	p := &RFFTPlan{
		n:    n,
		m:    m,
		post: make([]complex128, m),
		rev:  make([]int, m),
		z:    make([]complex128, m),
		vec:  hasAVX,
	}
	for k := 0; k < m; k++ {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.post[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	// Radix sequence: radix-4 stages down to span 4, with a final radix-2
	// stage when log2(m) is odd. Record it to derive the digit-reversed
	// output permutation of the DIF recursion.
	var radices []int
	for span := m; span > 1; {
		if span%4 == 0 {
			radices = append(radices, 4)
			span /= 4
		} else {
			radices = append(radices, 2)
			span /= 2
		}
	}
	for k := 0; k < m; k++ {
		pos, rem, span := 0, k, m
		for _, r := range radices {
			span /= r
			pos += (rem % r) * span
			rem /= r
		}
		p.rev[k] = pos
	}
	for span := m; span >= 4; span /= 4 {
		if span%4 != 0 {
			break
		}
		p.stages = append(p.stages, newStageTwiddles(span))
	}
	return p, nil
}

// newStageTwiddles precomputes the sequential twiddle table for a
// radix-4 DIF stage of the given span.
func newStageTwiddles(span int) stageTwiddles {
	q := span / 4
	w := make([]float64, 6*q)
	for i := 0; i < q; i++ {
		for pw := 1; pw <= 3; pw++ {
			angle := -2 * math.Pi * float64(pw*i) / float64(span)
			w[6*i+2*(pw-1)] = math.Cos(angle)
			w[6*i+2*(pw-1)+1] = math.Sin(angle)
		}
	}
	return stageTwiddles{span: span, w: w, wv: newStageTwiddlesVec(w, span)}
}

// newStageTwiddlesVec re-lays a stage's scalar twiddle table for the AVX
// kernel: per butterfly pair (i, i+1) and twiddle power p in 1..3, the
// real parts duplicated across each complex lane followed by the
// imaginary parts likewise,
//
//	[cp_i cp_i cp_{i+1} cp_{i+1}]  [dp_i dp_i dp_{i+1} dp_{i+1}]
//
// 24 floats (192 bytes) per pair, matching the fixed offsets the kernel
// reads. Values are copied from the scalar table, so both kernels
// multiply by bit-identical factors. Returns nil when the butterfly
// count is odd (span 4), which the kernel cannot pair.
func newStageTwiddlesVec(w []float64, span int) []float64 {
	q := span / 4
	if q%2 != 0 {
		return nil
	}
	wv := make([]float64, 0, 24*(q/2))
	for i := 0; i < q; i += 2 {
		for p := 0; p < 3; p++ {
			c0, d0 := w[6*i+2*p], w[6*i+2*p+1]
			c1, d1 := w[6*(i+1)+2*p], w[6*(i+1)+2*p+1]
			wv = append(wv, c0, c0, c1, c1, d0, d0, d1, d1)
		}
	}
	return wv
}

// Size reports the real frame length the plan was built for.
func (p *RFFTPlan) Size() int { return p.n }

// transformHalf packs frame into the scratch plane — fusing the analysis
// window multiply into the pack pass, which saves a full
// read-modify-write sweep over the frame — and runs the N/2 transform in
// place, leaving the packed spectrum Z in digit-reversed order. Callers
// then unpack the bins they need with unpackBin. win must have frame
// length.
//
// ew:hotpath — runs once per STFT column on the serving path.
func (p *RFFTPlan) transformHalf(frame, win []float64) error {
	if len(frame) != p.n {
		return fmt.Errorf("dsp: RFFT frame length %d does not match plan size %d", len(frame), p.n)
	}
	if len(win) != p.n {
		return fmt.Errorf("dsp: window length %d does not match plan size %d", len(win), p.n)
	}
	z := p.z
	for i := range z {
		z[i] = complex(frame[2*i]*win[2*i], frame[2*i+1]*win[2*i+1])
	}
	p.forwardDIF(z)
	return nil
}

// forwardDIF runs the radix-4 (plus optional final radix-2) DIF passes
// over the packed plane. Output is in digit-reversed order per p.rev.
//
// ew:hotpath — the butterfly network is the dominant per-column cost.
func (p *RFFTPlan) forwardDIF(z []complex128) {
	m := p.m
	for _, st := range p.stages {
		if p.vec && st.wv != nil {
			difStageAVX(z, st.wv, st.span)
			continue
		}
		difStageScalar(z, st)
	}
	// Final radix-2 stage when log2(m) is odd (span 2, twiddle 1).
	if m >= 2 && trailingRadix2(m) {
		for j := 0; j+1 < m; j += 2 {
			a, b := z[j], z[j+1]
			z[j] = a + b
			z[j+1] = a - b
		}
	}
}

// difStageScalar runs one radix-4 DIF stage over the plane z with the
// plain scalar loops — the reference the AVX kernel is pinned against,
// and its fallback. The four quarters of each block are re-sliced to
// equal lengths so the compiler can prove every access in bounds and
// drop the checks from the inner loop.
//
// ew:hotpath — the butterfly network is the dominant per-column cost.
func difStageScalar(z []complex128, st stageTwiddles) {
	span := st.span
	q := span / 4
	tw := st.w
	if span == 4 {
		// Every twiddle of the span-4 stage is 1 (q = 1 ⇒ i = 0), so
		// the whole pass is multiplication-free.
		for base := 0; base+3 < len(z); base += 4 {
			a, b, c, d := z[base], z[base+1], z[base+2], z[base+3]
			t0, t1 := a+c, a-c
			t2 := b + d
			t3 := complex(imag(b)-imag(d), real(d)-real(b)) // (b-d)·(-i)
			z[base] = t0 + t2
			z[base+1] = t1 + t3
			z[base+2] = t0 - t2
			z[base+3] = t1 - t3
		}
		return
	}
	for base := 0; base < len(z); base += span {
		za := z[base : base+q : base+q]
		zb := z[base+q : base+2*q : base+2*q]
		zc := z[base+2*q : base+3*q : base+3*q]
		zd := z[base+3*q : base+span : base+span]
		for i := range za {
			w := tw[6*i : 6*i+6 : 6*i+6]
			a, b, c, d := za[i], zb[i], zc[i], zd[i]
			t0, t1 := a+c, a-c
			t2 := b + d
			t3r, t3i := imag(b)-imag(d), real(d)-real(b) // (b-d)·(-i)
			za[i] = t0 + t2
			u1r, u1i := real(t1)+t3r, imag(t1)+t3i
			u2r, u2i := real(t0)-real(t2), imag(t0)-imag(t2)
			u3r, u3i := real(t1)-t3r, imag(t1)-t3i
			zb[i] = complex(u1r*w[0]-u1i*w[1], u1r*w[1]+u1i*w[0])
			zc[i] = complex(u2r*w[2]-u2i*w[3], u2r*w[3]+u2i*w[2])
			zd[i] = complex(u3r*w[4]-u3i*w[5], u3r*w[5]+u3i*w[4])
		}
	}
}

// trailingRadix2 reports whether the radix sequence for size m ends in a
// radix-2 stage, i.e. log2(m) is odd.
func trailingRadix2(m int) bool {
	bits := 0
	for 1<<bits < m {
		bits++
	}
	return bits%2 == 1
}

// unpackBin recovers bin k (0 <= k < n/2) of the length-n real-input DFT
// from the packed half-size spectrum computed by transformHalf:
//
//	E[k] = (Z[k] + conj(Z[M-k]))/2        (even-sample spectrum)
//	O[k] = -i·(Z[k] - conj(Z[M-k]))/2     (odd-sample spectrum)
//	X[k] = E[k] + e^{-2πik/n}·O[k]
//
// with M = n/2 and Z[M] identified with Z[0]. Z is read through the
// digit-reversal table, so no reordering pass ever runs.
//
// ew:hotpath — the STFT calls this once per retained bin per column.
func (p *RFFTPlan) unpackBin(k int) complex128 {
	m := p.m
	zk := p.z[p.rev[k]]
	zm := p.z[p.rev[(m-k)&(m-1)]] // (m-k) mod m; m is a power of two
	zr, zi := real(zk), imag(zk)
	mr, mi := real(zm), imag(zm)
	// E = (zk + conj(zm))/2, O = -i(zk - conj(zm))/2, expanded to reals.
	er, ei := (zr+mr)/2, (zi-mi)/2
	or, oi := (zi+mi)/2, (mr-zr)/2
	w := p.post[k]
	wr, wi := real(w), imag(w)
	return complex(er+wr*or-wi*oi, ei+wr*oi+wi*or)
}
